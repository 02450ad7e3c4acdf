package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// oneByteReader serves its input a byte a Read, as a socket may, and counts
// the Reads made once it is exhausted: a parser that reads past what the
// answer frames blocks on a live connection.
type oneByteReader struct {
	in   []byte
	past int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.in) == 0 {
		r.past++
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], r.in = r.in[0], r.in[1:]
	return 1, nil
}

// framingVerdict reports whether err is http.ReadResponse's rejection of how
// an answer frames its body.
func framingVerdict(err error) bool {
	for _, prefix := range []string{
		"http: message cannot contain multiple Content-Length headers",
		"bad Content-Length", "invalid empty Content-Length",
		"too many transfer encodings", "unsupported transfer encoding",
	} {
		if strings.HasPrefix(err.Error(), prefix) {
			return true
		}
	}
	return false
}

// FuzzResponseHead holds readHead, and the body it frames, to
// http.ReadResponse over the same bytes, a head and what follows it. readHead
// never panics and, for a body framed by length or chunks, never reads past
// the answer. It may be the stricter of the two, never the laxer about
// framing: what ReadResponse rejects for conflicting lengths or a transfer
// coding, readHead rejects. Where both accept they agree on the status and
// on the body's bytes; a body readHead's side reads whole, ReadResponse's
// reads whole too, and both say alike whether the connection outlives it.
func FuzzResponseHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		src := &oneByteReader{in: in}
		c := &conn{br: bufio.NewReader(src), ctx: context.Background()}
		h, err := readHead(c.br)
		resp, rerr := http.ReadResponse(bufio.NewReader(bytes.NewReader(in)), &http.Request{Method: http.MethodGet})
		if rerr != nil && framingVerdict(rerr) && err == nil {
			t.Fatalf("readHead accepts %q, which http.ReadResponse rejects: %v", in, rerr)
		}
		if err != nil || rerr != nil {
			return
		}
		b := c.open(h, true)
		got, gerr := io.ReadAll(b)
		want, werr := io.ReadAll(resp.Body)
		switch {
		case h.status != resp.StatusCode:
			t.Fatalf("%q: status %d, http.ReadResponse reads %d", in, h.status, resp.StatusCode)
		case !bytes.Equal(got, want):
			t.Fatalf("%q: body %q (%v), http.ReadResponse delivers %q (%v)", in, got, gerr, want, werr)
		case gerr == nil && werr != nil:
			t.Fatalf("%q: body read whole, http.ReadResponse's fails: %v", in, werr)
		case gerr == nil && b.keep == resp.Close:
			t.Fatalf("%q: connection reusable %v, http.ReadResponse says %v", in, b.keep, !resp.Close)
		case gerr == nil && (h.chunked || h.length >= 0) && src.past > 0:
			t.Fatalf("%q: a framed body read past the end of the answer", in)
		}
	})
}

// FuzzRequestHead holds parseRequestHead, the Front's in-place reader of a
// canonical request head, to http.ReadRequest over the same bytes. Any head
// it accepts, ReadRequest accepts too, with the same method, path, raw query,
// Host, Content-Length, trace ID and close flag; so it never accepts what
// ReadRequest refuses. It accepts no head with a transfer coding, a second
// Content-Length or a folded line, which ReadRequest reads with rules of its
// own. A data-plane head it accepts as a connection's later request, the
// Front keeps a connection on as its first (canonical).
func FuzzRequestHead(f *testing.F) {
	front := NewFront(&fakeService{}, "sdb", 0, -1, false)
	f.Fuzz(func(t *testing.T, in []byte) {
		n := headEnd(in)
		if n <= 0 {
			return
		}
		h, ok := parseRequestHead(in[:n])
		if !ok {
			return
		}
		head := strings.ToLower(string(in[:n]))
		if strings.Contains(head, "transfer-encoding") || strings.Count(head, "content-length") > 1 ||
			strings.Contains(head, "\n ") || strings.Contains(head, "\n\t") {
			t.Fatalf("parseRequestHead accepts %q", in[:n])
		}
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			t.Fatalf("parseRequestHead accepts %q, which http.ReadRequest refuses: %v", in[:n], err)
		}
		path, query, _ := strings.Cut(string(h.target), "?")
		for _, d := range []struct {
			what      string
			got, want any
		}{
			{"method", http.MethodPost, r.Method},
			{"path", path, r.URL.Path},
			{"raw query", query, r.URL.RawQuery},
			{"Host", string(h.host), r.Host},
			{"Content-Length", h.length, r.ContentLength},
			{"trace ID", string(h.traceID), r.Header.Get(traceIDHeader)},
			{"close", false, r.Close},
		} {
			if d.got != d.want {
				t.Fatalf("%q: %s %v, http.ReadRequest reads %v", in[:n], d.what, d.got, d.want)
			}
		}
		if m := front.endpoints[path]; m != nil && m.op != nil && front.canonical(r) != m {
			t.Fatalf("%q: read in place as a later request, but no first request to keep a connection on", in[:n])
		}
	})
}
