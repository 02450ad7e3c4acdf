package binproto

import (
	"encoding/binary"
	"fmt"

	"spatialcluster/internal/obs"
)

// The trace envelope. Setting KindTraceBit on a message's kind byte wraps the
// message — any kind — without touching its own layout. A traced request
// asks the receiver to trace it and carries the trace ID right after the
// kind byte, so a gateway can propagate one identity across its fan-out
// (0 lets the receiver mint one); a traced response carries the
// obs.AppendTrace encoding (trace ID, total wall ms, span tree) after its
// body, to the end of the payload:
//
//	traced window  0x41: traceID u64 | tech u8 | x1 y1 x2 y2 f64   (42 bytes)
//	traced query response 0xc1: candidates u32 | n u32 | n×id u64 | trace
//
// The four functions below add and strip the envelope; the message codecs
// never see it, so a sender traces by wrapping what it encoded and a
// receiver decodes what is left after unwrapping.
const KindTraceBit byte = 0x40

// TraceReq wraps an encoded request — msg must be the whole message — into
// its traced form.
func TraceReq(msg []byte, traceID uint64) []byte {
	msg = appendU64(msg, 0)
	copy(msg[9:], msg[1:])
	binary.LittleEndian.PutUint64(msg[1:], traceID)
	msg[0] |= KindTraceBit
	return msg
}

// UntraceReq strips the envelope of a request. An untraced msg comes back as
// it is; a traced one comes back as the plain message it wraps, rewritten in
// place (the kind byte moves up against the body, so plain shares msg's
// memory and msg is consumed).
func UntraceReq(msg []byte) (plain []byte, traceID uint64, traced bool, err error) {
	if len(msg) == 0 || msg[0]&KindTraceBit == 0 {
		return msg, 0, false, nil
	}
	if len(msg) < 9 {
		return nil, 0, false, fmt.Errorf("binproto: truncated trace id in a %d-byte traced message", len(msg))
	}
	traceID = binary.LittleEndian.Uint64(msg[1:])
	msg[8] = msg[0] &^ KindTraceBit
	return msg[8:], traceID, true, nil
}

// TraceResp wraps an encoded response — msg must be the whole message — into
// its traced form.
func TraceResp(msg []byte, traceID uint64, totalMS float64, spans []obs.Span) []byte {
	msg[0] |= KindTraceBit
	return obs.AppendTrace(msg, traceID, totalMS, spans)
}

// UntraceResp strips the envelope of a response: plain is the message
// without trace bit and trace (msg's own memory, the kind byte cleared in
// place), and the decoded trace comes back beside it when traced is set.
func UntraceResp(msg []byte) (plain []byte, traced bool, traceID uint64, totalMS float64, spans []obs.Span, err error) {
	if len(msg) == 0 || msg[0]&KindTraceBit == 0 {
		return msg, false, 0, 0, nil, nil
	}
	// The trace has no length prefix of its own: it starts where the body,
	// whose length the kind and the ID count fix, ends.
	body, per := 2, 0
	switch msg[0] &^ KindTraceBit {
	case KindQueryResp:
		body, per = 9, 8
	case KindKNNResp:
		body, per = 9, 16
	case KindMutateResp:
	default:
		return nil, false, 0, 0, nil, fmt.Errorf("binproto: message kind 0x%02x is no traced response", msg[0])
	}
	if len(msg) < body {
		return nil, false, 0, 0, nil, fmt.Errorf("binproto: truncated traced response of %d bytes", len(msg))
	}
	if per > 0 {
		n := int(binary.LittleEndian.Uint32(msg[5:]))
		if n > (len(msg)-body)/per {
			return nil, false, 0, 0, nil, fmt.Errorf("binproto: id count %d exceeds remaining payload", n)
		}
		body += n * per
	}
	traceID, totalMS, spans, err = obs.DecodeTrace(msg[body:])
	if err != nil {
		return nil, false, 0, 0, nil, err
	}
	msg[0] &^= KindTraceBit
	return msg[:body], true, traceID, totalMS, spans, nil
}
