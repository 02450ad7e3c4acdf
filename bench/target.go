package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// A target is one way of handing an operation to the program: a rung of the
// ladder. exec runs the operation and returns the digest of its answer
// (0 for a mutation).
type target interface {
	exec(o *op) (uint64, error)
}

// engineTarget calls the organization's methods directly.
type engineTarget struct{ org store.Organization }

func (t engineTarget) exec(o *op) (uint64, error) {
	switch o.kind {
	case opWindow:
		return setDigest(t.org.WindowQuery(o.win, store.TechComplete).IDs), nil
	case opPoint:
		return setDigest(t.org.PointQuery(o.pt).IDs), nil
	case opKNN:
		r := t.org.NearestQuery(o.pt, o.k)
		return listDigest(r.IDs, r.Dists), nil
	case opInsert:
		t.org.Insert(o.obj, o.key)
	case opUpdate:
		if !t.org.Update(o.obj, o.key) {
			return 0, fmt.Errorf("update of %d: object absent", o.obj.ID)
		}
	case opDelete:
		if !t.org.Delete(o.id) {
			return 0, fmt.Errorf("delete of %d: object absent", o.id)
		}
	}
	return 0, nil
}

// clientTarget speaks to a server or router through the typed client: JSON
// or binary, over a socket or (with handlerTransport) straight into a
// handler. traced selects the program's own ?trace=1 variants of the reads.
type clientTarget struct {
	c      *server.Client
	traced bool
}

func (t clientTarget) exec(o *op) (uint64, error) {
	switch o.kind {
	case opWindow:
		if t.traced {
			r, err := t.c.WindowTraced(o.win, "")
			return setDigest(r.IDs), err
		}
		r, err := t.c.Window(o.win, "")
		return setDigest(r.IDs), err
	case opPoint:
		if t.traced {
			r, err := t.c.PointTraced(o.pt)
			return setDigest(r.IDs), err
		}
		r, err := t.c.Point(o.pt)
		return setDigest(r.IDs), err
	case opKNN:
		if t.traced {
			r, err := t.c.KNNTraced(o.pt, o.k)
			return listDigest(r.IDs, r.Dists), err
		}
		r, err := t.c.KNN(o.pt, o.k)
		return listDigest(r.IDs, r.Dists), err
	case opInsert:
		return 0, t.c.Insert(o.obj, o.key)
	case opUpdate:
		existed, err := t.c.Update(o.obj, o.key)
		if err == nil && !existed {
			err = fmt.Errorf("update of %d: object absent", o.obj.ID)
		}
		return 0, err
	case opDelete:
		existed, err := t.c.Delete(o.id)
		if err == nil && !existed {
			err = fmt.Errorf("delete of %d: object absent", o.id)
		}
		return 0, err
	}
	panic("bench: unknown op kind")
}

// handlerTransport is an http.RoundTripper that drives a handler in-process
// through httptest.NewRecorder: the request path without a socket. A client
// over it pays the codec, admission and the dispatcher, but no HTTP.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// inProcessClient returns a client that calls h without a socket.
func inProcessClient(h http.Handler) *server.Client {
	return &server.Client{Base: "http://in-process", HTTP: &http.Client{Transport: handlerTransport{h}}}
}
