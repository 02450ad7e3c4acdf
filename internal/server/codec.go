package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"

	"spatialcluster/internal/binproto"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// ReadJSON decodes a JSON body of the stated length (-1 when unstated) into v;
// it reads both ways — the Front's requests, at most limit (maxBodyBytes)
// bytes, and the Client's answers (math.MaxInt64). Each data-plane body has a
// canonical form, the bytes encoding/json writes for it (json.Marshal's for a
// request, json.Encoder's for an untraced answer), which its sender appends to
// pooled scratch. ReadJSON reads the body into pooled scratch and parses that
// form with scanBody; encoding/json decodes every body the scanner declines,
// refusing anything but whitespace after the value and holding a request to
// the rule the scanner keeps by form. FuzzAnswerJSON and FuzzRequestJSON hold
// both halves to encoding/json.
func ReadJSON(body io.Reader, length, limit int64, v any) error {
	buf := binproto.GetBuf()
	defer binproto.PutBuf(buf)
	b, err := readBody(body, length, limit, (*buf)[:0])
	if *buf = b; err != nil {
		return fmt.Errorf("reading JSON body: %w", err)
	}
	if scanBody(b, v) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding JSON body: %w", err)
	}
	if len(bytes.Trim(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after JSON body")
	}
	return rule(b, v)
}

// growStep is how far past the bytes received readBody lets its buffer run,
// as internal/framing's reader does: a stated length alone buys at most this
// much memory.
const growStep = 64 << 10

// readBody reads body into b: the stated length of it or, when no length at
// most limit is stated, up to limit bytes — in steps of at most growStep, so
// a claim alone buys no more memory than that.
func readBody(body io.Reader, length, limit int64, b []byte) ([]byte, error) {
	stated := length >= 0 && length <= limit
	if !stated {
		length = limit
	}
	for len(b) < int(length) {
		step := min(int(length)-len(b), growStep)
		b = slices.Grow(b, step)
		n, err := io.ReadFull(body, b[len(b):len(b)+step])
		switch b = b[:len(b)+n]; {
		case err == nil:
		case !stated && (err == io.EOF || err == io.ErrUnexpectedEOF):
			return b, nil
		case err == io.EOF:
			return b, io.ErrUnexpectedEOF
		default:
			return b, err
		}
	}
	return b, nil
}

// rule holds a data-plane request that encoding/json decoded from b to what
// its type cannot show: window and key take exactly 4 numbers, point and
// every vertex 2, and window, point, k, id, object and the object's id are
// present (tech, key and pad need not be). Any other type passes.
func rule(b []byte, v any) error {
	switch v.(type) {
	case *WindowRequest, *PointRequest, *KNNRequest, *DeleteRequest, *InsertRequest:
	default:
		return nil
	}
	// A member decodes into a shape, and null into none, as in v; a later
	// member of the same name overrides an earlier one there too.
	var m struct {
		Window, Point, Key, K, ID *shape
		Object                    *struct{ ID, Vertices *shape }
	}
	// A member spelled for another request may not fit m and is skipped;
	// v's own members fit, since v decoded.
	_ = json.Unmarshal(b, &m)
	ok, what := true, ""
	switch v.(type) {
	case *WindowRequest:
		ok, what = m.Window != nil && m.Window.n == 4, "a window of 4 numbers"
	case *PointRequest:
		ok, what = m.Point != nil && m.Point.n == 2, "a point of 2 numbers"
	case *KNNRequest:
		ok, what = m.Point != nil && m.Point.n == 2 && m.K != nil, "a point of 2 numbers and k"
	case *DeleteRequest:
		ok, what = m.ID != nil, "an id"
	case *InsertRequest:
		o := m.Object
		ok = o != nil && o.ID != nil && (o.Vertices == nil || !o.Vertices.odd) && (m.Key == nil || m.Key.n == 4)
		what = "an object with an id and vertices of 2 numbers, and a key, if any, of 4"
	}
	if !ok {
		return fmt.Errorf("the request needs %s", what)
	}
	return nil
}

// shape is what rule reads of a member, off its bytes in one pass: v decoded
// before rule runs, so a list holds numbers and nulls or lists of them, and
// commas count elements. n is a list's length; odd marks a list of lists with
// a null element or one of other than 2 elements.
type shape struct {
	n   int
	odd bool
}

func (s *shape) UnmarshalJSON(b []byte) error {
	*s = shape{}
	depth, commas := 0, 0
	for _, c := range b {
		if depth == 1 && s.n == 0 && c > ' ' && c != ']' {
			s.n = 1 // the first element
		}
		switch c {
		case '[':
			depth, commas = depth+1, 0
		case ']':
			s.odd = s.odd || depth == 2 && commas != 1
			depth--
		case ',':
			if depth == 1 {
				s.n++
			} else {
				commas++
			}
		case 'n':
			s.odd = s.odd || depth == 1
		}
	}
	return nil
}

// scanBody parses b as the canonical body of what v points to — a data-plane
// request or an untraced answer — into v. It reports false, v zeroed, for any
// other body, and false for any other type.
func scanBody(b []byte, v any) bool {
	c := canon{b: b, ok: true}
	switch r := v.(type) {
	case *QueryResponse:
		c.lit(`{"ids":`)
		r.IDs = list(&c, "[", ",", "]", scanID)
		c.lit(`,"candidates":`)
		r.Candidates = num(&c, scanInt)
		c.lit("}\n")
	case *KNNResponse:
		c.lit(`{"ids":`)
		r.IDs = list(&c, "[", ",", "]", scanID)
		c.lit(`,"dists":`)
		r.Dists = list(&c, "[", ",", "]", scanFloat)
		c.lit(`,"candidates":`)
		r.Candidates = num(&c, scanInt)
		c.lit("}\n")
	case *MutateResponse:
		c.lit(`{"existed":`)
		if r.Existed = c.opt("true"); !r.Existed {
			c.lit("false")
		}
		c.lit("}\n")
	case *WindowRequest:
		c.lit(`{"window":`)
		if c.floats(r.Window[:]); c.opt(`,"tech":"`) {
			n := bytes.IndexByte(c.b, '"')
			if c.ok = n >= 0 && plain(c.b[:n]); c.ok {
				r.Tech, c.b = string(c.b[:n]), c.b[n+1:]
			}
		}
		c.lit("}")
	case *PointRequest:
		c.lit(`{"point":`)
		c.floats(r.Point[:])
		c.lit("}")
	case *KNNRequest:
		c.lit(`{"point":`)
		c.floats(r.Point[:])
		c.lit(`,"k":`)
		r.K = num(&c, scanInt)
		c.lit("}")
	case *DeleteRequest:
		c.lit(`{"id":`)
		r.ID = num(&c, scanID)
		c.lit("}")
	case *InsertRequest:
		o := &r.Object
		c.lit(`{"object":{"id":`)
		o.ID = num(&c, scanID)
		c.lit(`,"kind":"`)
		if o.Kind = "polyline"; !c.opt(o.Kind) {
			o.Kind = "polygon"
			c.lit(o.Kind)
		}
		c.lit(`","vertices":`)
		o.Vertices = list(&c, "[[", "],[", "]]", scanPair)
		if c.opt(`,"pad":`) {
			o.Pad = num(&c, scanInt)
		}
		c.lit("}")
		if c.opt(`,"key":`) {
			r.Key = new([4]float64)
			c.floats(r.Key[:])
		}
		c.lit("}")
	default:
		return false
	}
	if c.ok && len(c.b) == 0 {
		return true
	}
	reflect.ValueOf(v).Elem().SetZero() // what it read before it declined
	return false
}

// canon reads a canonical body a step at a time: a step that does not find
// what the form puts there clears ok, and every step after it reads nothing.
type canon struct {
	b  []byte
	ok bool
}

// opt consumes s if the body goes on with it, and reports whether it did.
func (c *canon) opt(s string) bool {
	if !c.ok || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// lit consumes s, which must come next.
func (c *canon) lit(s string) { c.ok = c.opt(s) }

// num consumes a literal, the bytes up to the next ',', ']' or '}', and
// returns what parse makes of it.
func num[T any](c *canon, parse func([]byte) (T, bool)) T {
	var v T
	n := bytes.IndexAny(c.b, ",]}")
	if c.ok = c.ok && n >= 0; c.ok {
		v, c.ok = parse(c.b[:n])
		c.b = c.b[n:]
	}
	return v
}

// list consumes null or a list — open, elements split by sep, close — sized
// once by its separators; the hot loop of a thousand-ID answer, it splits on
// bytes.Cut.
func list[T any](c *canon, open, sep, close string, parse func([]byte) (T, bool)) []T {
	if c.opt("null") {
		return nil
	}
	n := bytes.Index(c.b, []byte(close))
	if c.ok = c.ok && n >= len(open) && string(c.b[:len(open)]) == open; !c.ok {
		return nil
	}
	b := c.b[len(open):n]
	l := make([]T, 0, bytes.Count(b, []byte(sep))+1)
	for more := len(b) > 0; more && c.ok; {
		var tok []byte
		var v T
		tok, b, more = bytes.Cut(b, []byte(sep))
		v, c.ok = parse(tok) // declines the empty element of "[1,]" and "[,1]"
		l = append(l, v)
	}
	c.b = c.b[n+len(close):]
	return l
}

// floats consumes a list of exactly len(dst) numbers into dst.
func (c *canon) floats(dst []float64) {
	c.lit("[")
	for i := range dst {
		if i > 0 {
			c.lit(",")
		}
		dst[i] = num(c, scanFloat)
	}
	c.lit("]")
}

// appendAnswer appends, byte for byte as json.Encoder writes it, the body of
// QueryResponse{ids, candidates} or, when knn is set, of KNNResponse{ids,
// dists, candidates}, a nil ids written as []. It fails as encoding/json does
// on a distance JSON cannot carry (NaN, ±Inf).
func appendAnswer(dst []byte, ids []object.ID, dists []float64, knn bool, candidates int) ([]byte, error) {
	dst = append(dst, `{"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(id), 10)
	}
	dst = append(dst, ']')
	var err error
	if knn && dists == nil {
		dst = append(dst, `,"dists":null`...)
	} else if knn {
		dst = appendFloats(append(dst, `,"dists":`...), &err, dists...)
	}
	dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(candidates), 10)
	return append(dst, "}\n"...), err
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

// appendFloats appends nums as a JSON list. A number JSON cannot carry (NaN,
// ±Inf) sets *err, unless set, to json.Marshal's error.
func appendFloats(dst []byte, err *error, nums ...float64) []byte {
	dst = append(dst, '[')
	for i, f := range nums {
		if i > 0 {
			dst = append(dst, ',')
		}
		if *err == nil && (math.IsInf(f, 0) || math.IsNaN(f)) {
			*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		dst = appendFloat(dst, f)
	}
	return append(dst, ']')
}

// appendMutate appends json.Encoder's body of MutateResponse{Existed: existed}.
func appendMutate(dst []byte, existed bool) []byte {
	return append(strconv.AppendBool(append(dst, `{"existed":`...), existed), "}\n"...)
}

// errEscape is appendWindowReq's error for a tech name json.Marshal would
// escape, whose body the Client leaves to json.Marshal.
var errEscape = errors.New("tech name needs escaping")

// appendWindowReq appends json.Marshal(WindowRequest{win, tech}) and fails
// where that fails.
func appendWindowReq(dst []byte, win [4]float64, tech string) ([]byte, error) {
	if !plain(tech) {
		return dst, errEscape
	}
	var err error
	dst = appendFloats(append(dst, `{"window":`...), &err, win[:]...)
	if tech != "" {
		dst = append(append(append(dst, `,"tech":"`...), tech...), '"')
	}
	return append(dst, '}'), err
}

// appendPointReq appends json.Marshal(PointRequest{pt}) or, when knn is set,
// json.Marshal(KNNRequest{pt, k}), and fails where that fails.
func appendPointReq(dst []byte, pt [2]float64, knn bool, k int) ([]byte, error) {
	var err error
	dst = appendFloats(append(dst, `{"point":`...), &err, pt[:]...)
	if knn {
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(k), 10)
	}
	return append(dst, '}'), err
}

// appendDeleteReq appends json.Marshal(DeleteRequest{id}).
func appendDeleteReq(dst []byte, id object.ID) ([]byte, error) {
	return append(strconv.AppendUint(append(dst, `{"id":`...), uint64(id), 10), '}'), nil
}

// appendObjectReq appends the body of an insert or update of o under key,
// json.Marshal(InsertRequest{<o's wire form>, key}), straight from the
// object, and fails where that fails or o's geometry has no wire form.
func appendObjectReq(dst []byte, o *object.Object, key *[4]float64) ([]byte, error) {
	var pts []geom.Point
	kind := "polyline"
	switch g := o.Geom.(type) {
	case *geom.Polyline:
		pts = g.Vertices
	case *geom.Polygon:
		kind, pts = "polygon", g.Vertices
	default:
		return dst, fmt.Errorf("object %d: geometry %T has no wire form", o.ID, o.Geom)
	}
	dst = strconv.AppendUint(append(dst, `{"object":{"id":`...), uint64(o.ID), 10)
	dst = append(append(append(dst, `,"kind":"`...), kind...), `","vertices":[`...)
	var err error
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloats(dst, &err, p.X, p.Y)
	}
	dst = append(dst, ']')
	if o.Pad != 0 {
		dst = strconv.AppendInt(append(dst, `,"pad":`...), int64(o.Pad), 10)
	}
	dst = append(dst, '}')
	if key != nil {
		dst = appendFloats(append(dst, `,"key":`...), &err, key[:]...)
	}
	return append(dst, '}'), err
}

// plain reports whether json.Marshal writes s as its own bytes between
// quotes: printable ASCII but '"', '\\', '<', '>' and '&'.
func plain[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
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

// scanInt parses a JSON integer literal that fits an int.
func scanInt(tok []byte) (int, bool) {
	v, err := strconv.ParseInt(string(tok), 10, 0)
	return int(v), err == nil && json.Valid(tok)
}

// scanPair parses the numbers of a vertex, "x,y".
func scanPair(tok []byte) ([2]float64, bool) {
	x, y, ok := bytes.Cut(tok, []byte(","))
	fx, okx := scanFloat(x)
	fy, oky := scanFloat(y)
	return [2]float64{fx, fy}, ok && okx && oky
}

// scanFloat parses a JSON number literal the way encoding/json does.
func scanFloat(tok []byte) (float64, bool) {
	if len(tok) == 0 || tok[0] != '-' && tok[0]-'0' > 9 || !json.Valid(tok) {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
