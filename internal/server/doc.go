// Package server is the network serving layer: an HTTP API over a live
// storage organization, multiplexing many concurrent clients onto the
// concurrent query engine of internal/store.
//
// A request takes one path: Front → Service → execution. The Front
// (front.go) owns everything between the socket and the six data-plane
// operations — method checks, body limits, decoding and validation in either
// codec (JSON, or the binary records of internal/binproto under /bin/*),
// admission control (at most MaxInFlight requests in flight, the rest are
// rejected with 429), per-endpoint counters and latency histograms, the
// slow-query log, per-request tracing, the mapping of errors to statuses
// (every non-2xx answer is an ErrorResponse) and the encoding of answers. A
// Service is the six operations in engine types. Server is one — described
// below — and internal/router is the other, behind a Front of its own.
//
// The paper's evaluation measures query cost one request at a time; the
// serving layer answers the follow-up question — what those costs mean under
// sustained multi-client load — and must add no serialization of its own.
// Queries run concurrently: a window, point or k-NN query calls the
// organization on its request's goroutine as a batch of one and takes the
// environment's read lock itself, so B concurrent queries run B at a time
// with no hop to another goroutine; a traced one too, since a query tallies
// its own I/O. Mutations (insert/delete/update) group-commit: they go to one
// dispatcher goroutine, whose batch is whatever arrived while the previous
// batch applied — it never waits for a batch to fill, so an idle server adds
// no delay — and a batch shares one write-ahead-log commit. A query observes
// every mutation acknowledged before it arrived. Config.MaxBatch 1 is serial
// execution of every request.
//
// Every untraced data-plane JSON body — the six requests, the two query
// answers ({"ids":[...],"candidates":n}, with "dists" for k-NN) and
// {"existed":b} — skips encoding/json both ways (codec.go): its sender
// appends it to pooled scratch byte for byte as encoding/json would write it,
// and ReadJSON, the one reader of a JSON body at both ends, reads a body into
// pooled scratch as it reads a frame (below) and scans it, sizing its slices
// once. Any other form — a trace member, other key order, whitespace — goes
// to encoding/json, which takes nothing but whitespace after the value, and a
// request is held to the same rule: each list its exact length, every
// required member present. A traced answer is the untraced body with a trace
// member encoding/json writes; errors and the control plane stay on it.
//
// Each hop allocates the answer it hands on once and frames in buffers it
// reuses. A /bin/* body is one internal/framing record, read into pooled
// scratch — its length field is a claim, so a frame promising 8 MiB buys at
// most 64 KiB before its bytes arrive — and a binary answer is framed into
// pooled scratch and written in one Write, its length stated. The Client's
// transport is the package's own (transport.go): keep-alive connections, each
// exchange run on its caller's goroutine, no request ever resent, and an
// HTTP/1.1 codec of its own — the request head is written into the
// connection's writer, the answer's head parsed in place for its status and
// framing alone — so an exchange builds no http.Request or http.Response.
// Only a foreign RoundTripper in Client.HTTP (an in-process handler) sees an
// *http.Request; the transport's RoundTrip adapts one to the same codec. The
// Client frames a binary request into pooled scratch and reads the answer
// into the message buffer the call already holds.
//
// The Front serves the data plane's connections itself (kept.go). Served as
// its http.Server's whole Handler, it hijacks an HTTP/1.1 connection whose
// request is a canonical data-plane POST — origin-form target, HTTP/1.1,
// Host, and at most Content-Length, Content-Type and X-Sdb-Trace-Id — and
// reads each later head on it in place, on one goroutine: a request still
// running after watchDelay (2 ms) starts a one-byte read on a timer's, so a
// peer's hang-up ends its context within that delay. Given any other head, it
// hands the connection back, with the bytes read ahead, to its http.Server
// through a listener beside the server's own: net/http answers that head and
// serves the connection until its next data-plane request. A wrapped Front,
// HTTP/2 and a test's ResponseRecorder take net/http's path alone. On both
// paths an admitted request's body is read whole before it takes its permit,
// within the server's ReadHeaderTimeout (10 s when unset) of its head, and a
// data-plane operation answers with one byte slice: the loop frames it as
// net/http would, net/http's path writes it, length stated.
//
// Shutdown contract: the http.Server's Close and Shutdown (httptest's Close
// too) close the idle kept connections at once and a busy one after its
// answer, and a request read once they began is answered 503; the server's
// Shutdown does not wait for them, so the owner calls Server.Shutdown
// (Router.Shutdown in sdbrouter; both are Front.Shutdown's drain) after it,
// which waits for every request already read on a kept connection.
//
// Beside the data plane a Server mounts its control plane on the Front, and
// supports graceful shutdown: draining in-flight requests, flushing the
// store, and optionally saving a snapshot. /metrics exposes storage
// statistics, buffer hit ratio, modelled vs measured I/O, batch shape, and
// the Front's per-endpoint latency counters.
//
// Endpoints (JSON bodies, see api.go; the first six also under /bin/*):
//
//	POST /query/window  {"window":[x1,y1,x2,y2],"tech":"complete"}
//	POST /query/point   {"point":[x,y]}
//	POST /query/knn     {"point":[x,y],"k":10}
//	POST /insert        {"object":{...},"key":[x1,y1,x2,y2]}
//	POST /update        {"object":{...}}
//	POST /delete        {"id":17}
//	POST /recluster     {"policy":"threshold"}
//	POST /flush         {}
//	POST /save          {"path":"store.sdb"}
//	POST /load          {"path":"store.sdb"}
//	GET  /stats
//	GET  /metrics
//	GET  /debug/slowlog, /healthz, /readyz
//
// The daemon wrapping this package is cmd/sdbd. clusterbench -exp server
// (BENCH_server.json) replays generated op streams through it against
// in-process answers; bench/'s served workloads measure it in wall clock.
package server
