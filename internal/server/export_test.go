package server

import (
	"fmt"

	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
)

// Queued reports how many jobs wait for the dispatcher. The dispatcher tests
// use it to know that a batch's worth of requests has arrived before they
// let the dispatcher pick it up.
func (s *Server) Queued() int { return len(s.jobs) }

// SlowLog fetches the slow-query log.
func (c *Client) SlowLog() (slowLogResponse, error) {
	var out slowLogResponse
	err := c.get("/debug/slowlog", &out)
	return out, err
}

// FromObject converts an engine object to its wire form.
func FromObject(o *object.Object) (ObjectJSON, error) {
	j := ObjectJSON{ID: uint64(o.ID), Pad: o.Pad}
	var pts []geom.Point
	switch g := o.Geom.(type) {
	case *geom.Polyline:
		j.Kind, pts = "polyline", g.Vertices
	case *geom.Polygon:
		j.Kind, pts = "polygon", g.Vertices
	default:
		return ObjectJSON{}, fmt.Errorf("object %d: geometry %T has no wire form", o.ID, o.Geom)
	}
	j.Vertices = make([][2]float64, len(pts))
	for i, p := range pts {
		j.Vertices[i] = [2]float64{p.X, p.Y}
	}
	return j, nil
}
