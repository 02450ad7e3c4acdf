package framing

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadRecord drives the stream-record parser with arbitrary bytes: no
// input panics, every outcome is a payload, io.EOF, or a *RecordError, and an
// accepted payload re-frames to the exact bytes consumed. Reading into a
// reused buffer full of garbage — short of the record and larger than it —
// answers as reading into nil does, and a frame appended to a non-empty
// slice keeps its prefix.
func FuzzReadRecord(f *testing.F) {
	seed := AppendRecord(nil, []byte("hello"))
	f.Add(seed)
	two := AppendRecord(nil, nil)
	two = AppendRecord(two, []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})                     // truncated header
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}) // implausible length
	f.Add(seed[:RecordSize(5)-1])                 // truncated payload

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tiny := bytes.Repeat([]byte{0xa5}, 3) // shorter than a header
		short := bytes.Repeat([]byte{0xc3}, 12)
		long := bytes.Repeat([]byte{0x5a}, len(data)+16)
		for {
			before := len(data) - r.Len()
			payload, err := ReadRecord(r, 1<<16, nil)
			after := r.Len()
			for _, dst := range [][]byte{tiny, short, long} {
				again, aerr := ReadRecord(bytes.NewReader(data[before:]), 1<<16, dst)
				if !bytes.Equal(again, payload) || (aerr == nil) != (err == nil) || aerr != nil && aerr.Error() != err.Error() {
					t.Fatalf("into a %d-byte buffer: %q (%v), into nil: %q (%v)", cap(dst), again, aerr, payload, err)
				}
			}
			if err == io.EOF {
				if before != len(data) {
					t.Fatalf("io.EOF with %d bytes unread", len(data)-before)
				}
				return
			}
			if err != nil {
				var re *RecordError
				if !errors.As(err, &re) {
					t.Fatalf("error is %T (%v), want *RecordError", err, err)
				}
				return
			}
			consumed := (len(data) - after) - before
			prefix := []byte("prefix")
			framed := AppendRecord(prefix, payload)
			if !bytes.HasPrefix(framed, []byte("prefix")) || len(framed)-len(prefix) != consumed {
				t.Fatalf("re-framing after a prefix wrote %q, parser consumed %d bytes", framed, consumed)
			}
			if !bytes.Equal(framed[len(prefix):], data[before:before+consumed]) {
				t.Fatalf("re-framed record differs from input bytes")
			}
		}
	})
}

// TestClaimedLengthIsNotAllocated: a header that claims the largest record a
// binary body may carry, followed by 10 bytes, is a truncated record — and
// costs one growth step, not the claim.
func TestClaimedLengthIsNotAllocated(t *testing.T) {
	const claim = 8 << 20 // binproto.MaxMessage
	body := AppendRecord(nil, make([]byte, 10))
	body[0], body[1], body[2], body[3] = 0, 0, claim>>16, 0
	r := bytes.NewReader(body)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRecord(r, claim, nil)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatalf("a record claiming %d bytes and holding 10: %v, want a *RecordError", claim, err)
	}
	if allocated >= 128<<10 {
		t.Fatalf("reading it allocated %d bytes, want < 128 KiB", allocated)
	}
}

// TestReadRecordInSteps: a record several growth steps long reads back whole
// into nil, into a buffer shorter than it and into one that holds it.
func TestReadRecordInSteps(t *testing.T) {
	payload := make([]byte, 3*growStep+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	framed := AppendRecord(nil, payload)
	for _, dst := range [][]byte{nil, make([]byte, 100), make([]byte, len(payload)+1)} {
		got, err := ReadRecord(bytes.NewReader(framed), 1<<20, dst)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("into a %d-byte buffer: %d bytes (%v), want the %d written", cap(dst), len(got), err, len(payload))
		}
	}
	if _, err := ReadRecord(bytes.NewReader(framed[:len(framed)-1]), 1<<20, nil); err == nil {
		t.Fatal("a record one byte short read back")
	}
}
