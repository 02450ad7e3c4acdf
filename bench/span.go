package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the span that made the call (0 for a root).
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. It is used by one
// goroutine. A nil recorder records nothing, so the plain pass runs the same
// code as the traced one.
type recorder struct {
	t0    time.Time
	spans []span
	cur   int32 // the open root span: parent of child spans
	op    int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// root opens the root span of operation op.
func (r *recorder) root(name string, op int) int32 {
	if r == nil {
		return 0
	}
	r.op = int32(op)
	r.cur = r.open(name, 0)
	return r.cur
}

// child opens a span below the current root.
func (r *recorder) child(name string) int32 {
	if r == nil {
		return 0
	}
	return r.open(name, r.cur)
}

// childOf opens a span below the given span.
func (r *recorder) childOf(parent int32, name string) int32 {
	if r == nil {
		return 0
	}
	return r.open(name, parent)
}

func (r *recorder) open(name string, parent int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name,
		StartNS: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNS = time.Since(r.t0).Nanoseconds()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self times per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
