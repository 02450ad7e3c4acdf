// Package binproto is the compact binary wire format served by
// internal/server and internal/router next to HTTP/JSON. A binary request or
// response body is exactly one framing record —
//
//	uint32 length | uint32 CRC-32 | payload
//
// (the record discipline of internal/framing, shared with the write-ahead
// log) — whose payload starts with a one-byte message kind followed by the
// kind's fixed little-endian field layout:
//
//	window  0x01: tech u8 | x1 y1 x2 y2 f64        (34 bytes; tech 0xff: the server's default)
//	point   0x02: x y f64                          (17 bytes)
//	knn     0x03: x y f64 | k u32                  (21 bytes)
//	insert  0x04: hasKey u8 | [x1 y1 x2 y2 f64] | object.Append bytes
//	update  0x05: same layout as insert
//	delete  0x06: id u64                           (9 bytes)
//
//	query response  0x81: candidates u32 | n u32 | n×id u64
//	knn response    0x82: candidates u32 | n u32 | n×id u64 | n×dist f64
//	mutate response 0x83: existed u8               (2 bytes)
//
// Any message may travel inside the trace envelope of traced.go, which the
// receiver strips before it decodes. Every decoder is exact-length: trailing
// bytes are an error, truncation is an error, and no input can panic the
// decoder (the fuzz targets in this package enforce that). Errors travel as
// HTTP status codes with the JSON API's error body — only success bodies are
// binary.
//
// Encoding appends to caller buffers; GetBuf/PutBuf pool the scratch so the
// serving hot path allocates nothing per request beyond the answer slice the
// caller asked for.
package binproto

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"spatialcluster/internal/object"
	"spatialcluster/internal/store"
)

// Message kinds: requests count up from 1, responses from 0x81.
const (
	KindWindow byte = 0x01
	KindPoint  byte = 0x02
	KindKNN    byte = 0x03
	KindInsert byte = 0x04
	KindUpdate byte = 0x05
	KindDelete byte = 0x06

	KindQueryResp  byte = 0x81
	KindKNNResp    byte = 0x82
	KindMutateResp byte = 0x83
)

// MaxMessage bounds the framed payload length a reader accepts — the binary
// twin of the JSON API's request body cap.
const MaxMessage = 8 << 20

// ContentType is the Content-Type of binary request and response bodies.
const ContentType = "application/x-spatialcluster-bin"

// maxPooled is the largest buffer PutBuf keeps: the pool serves the common
// answer, and one huge answer must not stay pinned in it.
const maxPooled = 64 << 10

// bufPool recycles encode scratch buffers across requests.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetBuf returns a pooled, empty scratch buffer for encoding.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a scratch buffer to the pool; one that grew past 64 KiB is
// left to the garbage collector.
func PutBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		bufPool.Put(b)
	}
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// reader walks a payload with bounds checks; the first short read poisons it.
type reader struct {
	p   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("binproto: truncated %s at byte %d of %d", what, r.off, len(r.p))
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.p) {
		r.fail(what)
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.p) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.p) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

// rest returns every unread byte and marks the payload consumed.
func (r *reader) rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.p[r.off:]
	r.off = len(r.p)
	return v
}

// done enforces the exact-length contract.
func (r *reader) done(kind string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.p) {
		return fmt.Errorf("binproto: %d trailing bytes after %s message", len(r.p)-r.off, kind)
	}
	return nil
}

// checkKind consumes and verifies the leading kind byte.
func (r *reader) checkKind(want byte, name string) {
	if got := r.u8("message kind"); r.err == nil && got != want {
		r.err = fmt.Errorf("binproto: message kind 0x%02x, want %s (0x%02x)", got, name, want)
	}
}

// TechName returns the canonical wire name of a technique — the string the
// JSON API parses with store.TechByName. (Technique.String is a display name,
// not a wire name.) Gateways translating a binary technique byte into a JSON
// request use this. The unnamed technique has the empty name.
func TechName(t store.Technique) string {
	switch t {
	case store.TechDefault:
		return ""
	case store.TechThreshold:
		return "threshold"
	case store.TechSLM:
		return "slm"
	case store.TechSLMVector:
		return "vector"
	case store.TechPageByPage:
		return "page"
	}
	return "complete"
}

// --- requests ---

// AppendWindowReq encodes a window query request. The technique travels as a
// signed byte: store.TechDefault (0xff) leaves it to the server that executes
// the query.
func AppendWindowReq(dst []byte, win [4]float64, tech store.Technique) []byte {
	dst = append(dst, KindWindow, byte(tech))
	for _, v := range win {
		dst = appendF64(dst, v)
	}
	return dst
}

// DecodeWindowReq decodes a window query request, validating the technique.
func DecodeWindowReq(p []byte) (win [4]float64, tech store.Technique, err error) {
	r := &reader{p: p}
	r.checkKind(KindWindow, "window")
	t := r.u8("technique")
	for i := range win {
		win[i] = r.f64("window coordinate")
	}
	if err = r.done("window"); err != nil {
		return win, 0, err
	}
	tech = store.Technique(int8(t))
	if tech < store.TechDefault || tech > store.TechPageByPage {
		return win, 0, fmt.Errorf("binproto: unknown technique %d", t)
	}
	return win, tech, nil
}

// AppendPointReq encodes a point query request.
func AppendPointReq(dst []byte, pt [2]float64) []byte {
	dst = append(dst, KindPoint)
	dst = appendF64(dst, pt[0])
	return appendF64(dst, pt[1])
}

// DecodePointReq decodes a point query request.
func DecodePointReq(p []byte) (pt [2]float64, err error) {
	r := &reader{p: p}
	r.checkKind(KindPoint, "point")
	pt[0] = r.f64("point x")
	pt[1] = r.f64("point y")
	return pt, r.done("point")
}

// AppendKNNReq encodes a k-nearest-neighbor request.
func AppendKNNReq(dst []byte, pt [2]float64, k int) []byte {
	dst = append(dst, KindKNN)
	dst = appendF64(dst, pt[0])
	dst = appendF64(dst, pt[1])
	return appendU32(dst, uint32(k))
}

// DecodeKNNReq decodes a k-nearest-neighbor request.
func DecodeKNNReq(p []byte) (pt [2]float64, k int, err error) {
	r := &reader{p: p}
	r.checkKind(KindKNN, "knn")
	pt[0] = r.f64("point x")
	pt[1] = r.f64("point y")
	kk := r.u32("k")
	if err = r.done("knn"); err != nil {
		return pt, 0, err
	}
	if kk == 0 || kk > math.MaxInt32 {
		return pt, 0, fmt.Errorf("binproto: implausible k %d", kk)
	}
	return pt, int(kk), nil
}

// AppendMutateReq encodes an insert (KindInsert) or update (KindUpdate)
// request: the optional spatial key followed by the object's storage
// serialization, reused verbatim as its wire form.
func AppendMutateReq(dst []byte, kind byte, o *object.Object, key *[4]float64) []byte {
	dst = append(dst, kind)
	if key != nil {
		dst = append(dst, 1)
		for _, v := range key {
			dst = appendF64(dst, v)
		}
	} else {
		dst = append(dst, 0)
	}
	return object.Append(dst, o)
}

// DecodeMutateReq decodes an insert or update request. The kind byte selects
// which; the decoded object has been through object.Unmarshal's validation,
// so a malformed body is an error, never a panic.
func DecodeMutateReq(p []byte, kind byte) (o *object.Object, key *[4]float64, err error) {
	name := "insert"
	if kind == KindUpdate {
		name = "update"
	}
	r := &reader{p: p}
	r.checkKind(kind, name)
	switch r.u8("key flag") {
	case 0:
	case 1:
		var k [4]float64
		for i := range k {
			k[i] = r.f64("key coordinate")
		}
		key = &k
	default:
		if r.err == nil {
			r.err = fmt.Errorf("binproto: %s key flag must be 0 or 1", name)
		}
	}
	body := r.rest()
	if r.err != nil {
		return nil, nil, r.err
	}
	o, err = object.Unmarshal(body)
	if err != nil {
		return nil, nil, err
	}
	// Unmarshal tolerates nonzero reserved and padding bytes; the wire format
	// does not — an accepted message always re-encodes to the same bytes.
	if body[9] != 0 || body[10] != 0 || body[11] != 0 {
		return nil, nil, fmt.Errorf("binproto: %s object reserved bytes must be zero", name)
	}
	for _, b := range body[len(body)-o.Pad:] {
		if b != 0 {
			return nil, nil, fmt.Errorf("binproto: %s object padding bytes must be zero", name)
		}
	}
	return o, key, nil
}

// AppendDeleteReq encodes a delete request.
func AppendDeleteReq(dst []byte, id uint64) []byte {
	return appendU64(append(dst, KindDelete), id)
}

// DecodeDeleteReq decodes a delete request.
func DecodeDeleteReq(p []byte) (id uint64, err error) {
	r := &reader{p: p}
	r.checkKind(KindDelete, "delete")
	id = r.u64("object id")
	return id, r.done("delete")
}

// --- responses ---

// AppendQueryResp encodes a window/point answer.
func AppendQueryResp(dst []byte, ids []object.ID, candidates int) []byte {
	dst = append(dst, KindQueryResp)
	dst = appendU32(dst, uint32(candidates))
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU64(dst, uint64(id))
	}
	return dst
}

// DecodeQueryResp decodes a window/point answer, appending the IDs to
// ids[:0] — grown once to the count, so a caller-kept slice makes the decode
// allocation-free and any other allocates the answer once.
func DecodeQueryResp(p []byte, ids []uint64) (out []uint64, candidates int, err error) {
	r := &reader{p: p}
	r.checkKind(KindQueryResp, "query response")
	cand := r.u32("candidate count")
	n := r.u32("id count")
	if r.err == nil && int(n) > (len(p)-r.off)/8 {
		r.err = fmt.Errorf("binproto: id count %d exceeds remaining payload", n)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	out = slices.Grow(ids[:0], int(n))
	for i := uint32(0); i < n; i++ {
		out = append(out, r.u64("object id"))
	}
	if err = r.done("query response"); err != nil {
		return nil, 0, err
	}
	return out, int(cand), nil
}

// AppendKNNResp encodes a k-NN answer.
func AppendKNNResp(dst []byte, ids []object.ID, dists []float64, candidates int) []byte {
	dst = append(dst, KindKNNResp)
	dst = appendU32(dst, uint32(candidates))
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU64(dst, uint64(id))
	}
	for _, d := range dists {
		dst = appendF64(dst, d)
	}
	return dst
}

// DecodeKNNResp decodes a k-NN answer into ids[:0] and dists[:0], each grown
// once to the count.
func DecodeKNNResp(p []byte, ids []uint64, dists []float64) (outIDs []uint64, outDists []float64, candidates int, err error) {
	r := &reader{p: p}
	r.checkKind(KindKNNResp, "knn response")
	cand := r.u32("candidate count")
	n := r.u32("id count")
	if r.err == nil && int(n) > (len(p)-r.off)/16 {
		r.err = fmt.Errorf("binproto: id count %d exceeds remaining payload", n)
	}
	if r.err != nil {
		return nil, nil, 0, r.err
	}
	outIDs, outDists = slices.Grow(ids[:0], int(n)), slices.Grow(dists[:0], int(n))
	for i := uint32(0); i < n; i++ {
		outIDs = append(outIDs, r.u64("object id"))
	}
	for i := uint32(0); i < n; i++ {
		outDists = append(outDists, r.f64("distance"))
	}
	if err = r.done("knn response"); err != nil {
		return nil, nil, 0, err
	}
	return outIDs, outDists, int(cand), nil
}

// AppendMutateResp encodes an insert/update/delete answer.
func AppendMutateResp(dst []byte, existed bool) []byte {
	dst = append(dst, KindMutateResp)
	if existed {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeMutateResp decodes an insert/update/delete answer.
func DecodeMutateResp(p []byte) (existed bool, err error) {
	r := &reader{p: p}
	r.checkKind(KindMutateResp, "mutate response")
	switch r.u8("existed flag") {
	case 0:
	case 1:
		existed = true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("binproto: existed flag must be 0 or 1")
		}
	}
	return existed, r.done("mutate response")
}
