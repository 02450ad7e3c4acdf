package server

import (
	"fmt"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/obs"
)

// This file defines the wire types of the HTTP/JSON API and the codec
// between them and the engine's native types. Object IDs travel as JSON
// integers: encoding/json round-trips uint64 digits exactly (Go clients are
// lossless); JavaScript clients must treat them as opaque strings.

// ObjectJSON is the wire form of a stored spatial object.
type ObjectJSON struct {
	ID       uint64       `json:"id"`
	Kind     string       `json:"kind"` // "polyline" or "polygon"
	Vertices [][2]float64 `json:"vertices"`
	Pad      int          `json:"pad,omitempty"` // extra payload bytes
}

// toObject validates and converts the wire form. The constructors of geom
// panic on degenerate vertex chains, so the counts are checked here first —
// a malformed request must become a 400, never a server panic.
func (j ObjectJSON) toObject() (*object.Object, error) {
	if j.Pad < 0 {
		return nil, fmt.Errorf("object %d: negative pad %d", j.ID, j.Pad)
	}
	pts := make([]geom.Point, len(j.Vertices))
	for i, v := range j.Vertices {
		pts[i] = geom.Pt(v[0], v[1])
	}
	var g geom.Geometry
	switch j.Kind {
	case "polyline":
		if len(pts) < 2 {
			return nil, fmt.Errorf("object %d: polyline needs at least 2 vertices, got %d", j.ID, len(pts))
		}
		g = geom.NewPolyline(pts)
	case "polygon":
		if len(pts) < 3 {
			return nil, fmt.Errorf("object %d: polygon needs at least 3 vertices, got %d", j.ID, len(pts))
		}
		g = geom.NewPolygon(pts)
	default:
		return nil, fmt.Errorf("object %d: unknown kind %q (want polyline or polygon)", j.ID, j.Kind)
	}
	return object.New(object.ID(j.ID), g, j.Pad), nil
}

// WindowRequest asks for the objects intersecting a window.
type WindowRequest struct {
	Window [4]float64 `json:"window"` // x1,y1,x2,y2 (any corner order)
	Tech   string     `json:"tech,omitempty"`
}

// PointRequest asks for the objects containing a point.
type PointRequest struct {
	Point [2]float64 `json:"point"`
}

// KNNRequest asks for the k objects nearest to a point.
type KNNRequest struct {
	Point [2]float64 `json:"point"`
	K     int        `json:"k"`
}

// QueryResponse answers a window or point query.
type QueryResponse struct {
	IDs        []uint64   `json:"ids"`
	Candidates int        `json:"candidates"`
	Trace      *TraceInfo `json:"trace,omitempty"` // set by ?trace=1
}

// KNNResponse answers a k-NN query: IDs in ascending exact-distance order
// (ties by ID) with the matching distances.
type KNNResponse struct {
	IDs        []uint64   `json:"ids"`
	Dists      []float64  `json:"dists"`
	Candidates int        `json:"candidates"`
	Trace      *TraceInfo `json:"trace,omitempty"` // set by ?trace=1
}

// TraceInfo is the per-request trace attached to an answer when the request
// asked for one with ?trace=1: the end-to-end wall time and the attributed
// stage spans (queue wait, execution, WAL commit) with their I/O deltas.
// Through the router the spans form a tree — one sub-trace grafted in per
// shard touched — and TraceID is the identity shared by every hop.
type TraceInfo struct {
	TraceID uint64     `json:"trace_id,omitempty"`
	TotalMS float64    `json:"total_ms"`
	Spans   []obs.Span `json:"spans"`
}

// InsertRequest stores an object. Key is the spatial key (MBR); omitted or
// empty it defaults to the object's bounds.
type InsertRequest struct {
	Object ObjectJSON  `json:"object"`
	Key    *[4]float64 `json:"key,omitempty"`
}

// DeleteRequest removes an object by ID.
type DeleteRequest struct {
	ID uint64 `json:"id"`
}

// MutateResponse answers insert/update/delete.
type MutateResponse struct {
	Existed bool       `json:"existed"` // delete/update: the object was present
	Trace   *TraceInfo `json:"trace,omitempty"`
}

// slowLogResponse is the body of GET /debug/slowlog: the retained slow-query
// ring, newest first.
type slowLogResponse struct {
	ThresholdMS float64         `json:"threshold_ms"` // negative: recording disabled
	Total       int64           `json:"total"`        // entries ever recorded, evicted included
	Entries     []obs.SlowEntry `json:"entries"`
}

// ReclusterRequest runs one maintenance pass of the named policy.
type ReclusterRequest struct {
	Policy string `json:"policy"`
}

// ReclusterResponse reports the maintenance pass.
type ReclusterResponse struct {
	RepackedUnits int    `json:"repacked_units"`
	Rebuilt       bool   `json:"rebuilt"`
	Note          string `json:"note,omitempty"` // set when the organization has no cluster units
}

// PathRequest names a snapshot file for /save and /load.
type PathRequest struct {
	Path string `json:"path"`
}

// SaveResponse reports a written snapshot.
type SaveResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// StatsResponse reports the served organization and its storage statistics.
type StatsResponse struct {
	Org           string  `json:"org"`
	Objects       int     `json:"objects"`
	OccupiedPages int     `json:"occupied_pages"`
	DirPages      int     `json:"dir_pages"`
	LeafPages     int     `json:"leaf_pages"`
	ObjectPages   int     `json:"object_pages"`
	ObjectBytes   int64   `json:"object_bytes"`
	LiveBytes     int64   `json:"live_bytes"`
	DeadBytes     int64   `json:"dead_bytes"`
	Units         int     `json:"units"`
	ExtentUtil    float64 `json:"extent_util"`
	// WAL reports the write-ahead log of a WAL-attached store (absent when
	// the store was started without one).
	WAL *WALStats `json:"wal,omitempty"`
	// Warning is set by /load when the swap succeeded but cleanup of the
	// previous store did not (the answer is still the new store's stats).
	Warning string `json:"warning,omitempty"`
}

// WALStats reports the write-ahead log inside StatsResponse and Metrics.
// The fsync quantiles come from a per-sync latency histogram — group commit
// means one sync can cover many mutations, so the tail here is the tail of
// commit durability, not of individual requests.
type WALStats struct {
	Segments    int     `json:"segments"`
	Bytes       int64   `json:"bytes"`
	LastLSN     uint64  `json:"last_lsn"`
	Syncs       int64   `json:"syncs"`
	LastFsyncMS float64 `json:"last_fsync_ms"`
	FsyncP50MS  float64 `json:"fsync_p50_ms"`
	FsyncP95MS  float64 `json:"fsync_p95_ms"`
	FsyncP99MS  float64 `json:"fsync_p99_ms"`
}

// ErrorResponse is the body of every non-2xx answer, on either codec.
type ErrorResponse struct {
	Error string `json:"error"`
}
