package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// appendAnswer appends, byte for byte as encoding/json writes it, the body of
// queryResponse{nonNil(ids), candidates} or, when knn is set, of
// knnResponse{nonNil(ids), dists, candidates}; FuzzAnswerJSON holds it and
// scanAnswer to encoding/json. It reports false on a distance JSON cannot
// carry (NaN, ±Inf).
func appendAnswer(dst []byte, ids []object.ID, dists []float64, knn bool, candidates int) ([]byte, bool) {
	dst = append(dst, `{"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(id), 10)
	}
	dst = append(dst, ']')
	if knn && dists == nil {
		dst = append(dst, `,"dists":null`...)
	} else if knn {
		dst = append(dst, `,"dists":[`...)
		for i, f := range dists {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(candidates), 10)
	return append(dst, "}\n"...), true
}

// appendFloat formats f as encoding/json does: the shortest digits that
// round-trip, exponent form only below 1e-6 and from 1e21, "e-09" as "e-9".
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst = append(dst[:n-2], dst[n-1])
	}
	return dst
}

// replyAnswer answers an untraced JSON query from pooled scratch. It reports
// false, nothing sent, when the answer does not encode.
func replyAnswer(x *statusRecorder, res store.QueryResult, dists []float64, knn bool) bool {
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	var ok bool
	if *buf, ok = appendAnswer((*buf)[:0], res.IDs, dists, knn, res.Candidates); ok {
		x.setBody(jsonType, len(*buf))
		x.Write(*buf) // a failed write means the client is gone; nothing to do
	}
	return ok
}

// decodeJSON decodes a JSON answer body of the stated length (-1 when
// unstated) into resp: a query answer of stated length below the request body
// cap is read into pooled scratch and, in the canonical form, parsed by the
// scanner; every other body, every body the scanner declines and every body
// whose read failed is encoding/json's to finish.
func decodeJSON(body io.Reader, length int64, resp any) error {
	_, query := resp.(*QueryResponse)
	if _, knn := resp.(*KNNResponse); !query && !knn || length < 0 || length >= maxBodyBytes {
		return json.NewDecoder(body).Decode(resp)
	}
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	*buf = slices.Grow((*buf)[:0], int(length))[:length]
	n, err := io.ReadFull(body, *buf)
	if err == nil && scanAnswer(*buf, resp) {
		return nil
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader((*buf)[:n]), body)).Decode(resp)
}

// scanAnswer parses b as the canonical body of resp's answer and fills resp;
// it reports false, resp untouched, when b is anything else.
func scanAnswer(b []byte, resp any) bool {
	b, ok := bytes.CutPrefix(b, []byte(`{"ids":`))
	if !ok {
		return false
	}
	ids, b, ok := scanList(b, scanID)
	if !ok {
		return false
	}
	var dists []float64
	knn, isKNN := resp.(*KNNResponse)
	if isKNN {
		if b, ok = bytes.CutPrefix(b, []byte(`,"dists":`)); !ok {
			return false
		}
		if dists, b, ok = scanList(b, scanFloat); !ok {
			return false
		}
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"candidates":`)); !ok || !bytes.HasSuffix(b, []byte("}\n")) {
		return false
	}
	candidates, ok := scanID(b[:len(b)-2])
	if !ok || candidates > math.MaxInt {
		return false
	}
	if isKNN {
		*knn = KNNResponse{IDs: ids, Dists: dists, Candidates: int(candidates)}
	} else {
		*resp.(*QueryResponse) = QueryResponse{IDs: ids, Candidates: int(candidates)}
	}
	return true
}

// scanList parses null or a bracketed, comma-separated list without
// whitespace at the head of b, sizing the result once, and returns what
// follows it.
func scanList[T any](b []byte, element func([]byte) (T, bool)) ([]T, []byte, bool) {
	if rest, ok := bytes.CutPrefix(b, []byte("null")); ok {
		return nil, rest, true
	}
	end := bytes.IndexByte(b, ']')
	if end < 1 || b[0] != '[' {
		return nil, b, false
	}
	b, rest := b[1:end], b[end+1:]
	list := make([]T, 0, bytes.Count(b, []byte(","))+1)
	for more := len(b) > 0; more; {
		var tok []byte
		tok, b, more = bytes.Cut(b, []byte(","))
		v, ok := element(tok) // declines the empty token of "[1,]" and "[,1]"
		if !ok {
			return nil, rest, false
		}
		list = append(list, v)
	}
	return list, rest, true
}

// scanID parses a JSON integer literal that fits a uint64: digits only, no
// leading zero.
func scanID(tok []byte) (uint64, bool) {
	if len(tok) == 0 || len(tok) > 1 && tok[0] == '0' {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// scanFloat parses a JSON number literal the way encoding/json does.
func scanFloat(tok []byte) (float64, bool) {
	if len(tok) == 0 || tok[0] != '-' && tok[0]-'0' > 9 || !json.Valid(tok) {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
