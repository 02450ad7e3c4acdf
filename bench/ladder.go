package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spatialcluster"
	"spatialcluster/internal/binproto"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/object"
	"spatialcluster/internal/rtree"
	"spatialcluster/internal/server"
	"spatialcluster/internal/store"
)

// The traced pass. After the timed rounds, never during them, the first
// ladderOps operations of the stream are replayed serially at every rung of
// a cumulative ladder, each rung one more layer of the program:
//
//	geom     the exact geometry tests on the filter step's candidates
//	rtree    + the R*-tree filter step (objects looked up in memory)
//	store    + the organization's full query: buffer, disk, object decoding
//	wal      + the log append and fsync (mutations only)
//	handler  + codec, admission and dispatcher, through the handler in-process
//	http     + the loopback socket
//	router   + the router hop, scatter and merge
//
// A layer's self time is its rung's median latency minus that of the rung
// below, so the self times add up to the top rung, and what the top rung
// does not explain of the timed rounds' lat_p50_ms is reported as
// bench.unattributed_share: queueing between the concurrent clients.
// Every call into a layer is recorded as a span.

// rungReport is one rung of the ladder.
type rungReport struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	P50MS     float64 `json:"p50_ms"`
	MeanMS    float64 `json:"mean_ms"`
	SelfP50MS float64 `json:"self_p50_ms"` // P50MS minus the rung below's
	lat       []float64
}

// rung replays ops serially through fn, one root span per operation, and
// checks every answer against want (nil for mutations).
func rung(name string, ops []op, want []uint64, rec *recorder, fn func(i int) (uint64, error)) (rungReport, error) {
	r := rungReport{Name: name, Ops: len(ops), lat: make([]float64, len(ops))}
	for i := range ops {
		id := rec.root(name+"."+ops[i].kind.String(), i)
		t0 := time.Now()
		d, err := fn(i)
		r.lat[i] = msSince(t0)
		rec.end(id)
		if err != nil {
			return r, fmt.Errorf("rung %s, %s #%d: %w", name, ops[i].kind, i, err)
		}
		if want != nil && d != want[i] {
			return r, fmt.Errorf("rung %s, %s #%d: answer differs from the oracle's", name, ops[i].kind, i)
		}
	}
	r.P50MS = median(r.lat)
	r.MeanMS = sum(r.lat) / float64(len(r.lat))
	return r, nil
}

// fillSelf sets each rung's self time: its median minus the rung below's.
func fillSelf(rungs []rungReport) {
	for i := range rungs {
		rungs[i].SelfP50MS = rungs[i].P50MS
		if i > 0 {
			rungs[i].SelfP50MS -= rungs[i-1].P50MS
		}
	}
}

// totalOfKind is the summed latency in µs of the rung's operations of one
// kind, and their number.
func (r rungReport) totalOfKind(ops []op, k opKind) (us, n float64) {
	for i := range ops {
		if ops[i].kind == k {
			us += r.lat[i] * 1000
			n++
		}
	}
	return us, n
}

// meanOfKind is the mean latency in µs of the rung's operations of one kind.
func (r rungReport) meanOfKind(ops []op, k opKind) float64 {
	return ratio(r.totalOfKind(ops, k))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// leafID decodes the object ID the stores put first in an R*-tree leaf
// payload (internal/store: ID (8) + size (4) + spare (2), little-endian).
func leafID(e *rtree.Entry) object.ID {
	return object.ID(binary.LittleEndian.Uint64(e.Payload))
}

// filterRefine answers a read through the R*-tree's public search functions
// and the geometry predicates alone: what the store does, minus fetching the
// objects from pages — they are looked up in live instead. cands, if not
// nil, receives the objects the exact tests ran on.
func filterRefine(tree *rtree.Tree, live map[object.ID]*object.Object, o *op, rec *recorder, cands *[]*object.Object) uint64 {
	var found []*object.Object
	switch o.kind {
	case opWindow, opPoint:
		var ids []object.ID
		w := o.win
		if o.kind == opPoint {
			w = geom.RectFromPoint(o.pt)
		}
		s := rec.child("rtree.Search")
		tree.Search(w, func(e rtree.Entry) bool {
			found = append(found, live[leafID(&e)])
			return true
		})
		rec.end(s)
		s = rec.child("geom.refine")
		for _, ob := range found {
			if o.kind == opWindow && ob.Geom.IntersectsRect(w) || o.kind == opPoint && ob.Geom.ContainsPoint(o.pt) {
				ids = append(ids, ob.ID)
			}
		}
		rec.end(s)
		if cands != nil {
			*cands = found
		}
		return setDigest(ids)
	case opKNN:
		// Best-first browse with the k-th exact distance as the bound, the
		// way store.nearestSearch drives Tree.NearestLeaves.
		best := kBest{k: o.k}
		s := rec.child("rtree.NearestLeaves")
		tree.NearestLeaves(o.pt,
			func(minDist float64) bool { return best.full() && minDist > best.bound() },
			func(n *rtree.Node, _ float64) bool {
				g := rec.childOf(s, "geom.DistToPoint")
				for i := range n.Entries {
					e := &n.Entries[i]
					if best.full() && e.Rect.MinDist(o.pt) > best.bound() {
						continue
					}
					ob := live[leafID(e)]
					found = append(found, ob)
					best.add(ob.ID, ob.Geom.DistToPoint(o.pt))
				}
				rec.end(g)
				return true
			})
		rec.end(s)
		if cands != nil {
			*cands = found
		}
		return listDigest(best.ids, best.dists)
	}
	panic("bench: filterRefine asked to run a mutation")
}

// exactTests replays only the geometry predicates of one read on its
// recorded candidates.
func exactTests(o *op, cands []*object.Object) (matched int) {
	switch o.kind {
	case opWindow:
		for _, ob := range cands {
			if ob.Geom.IntersectsRect(o.win) {
				matched++
			}
		}
	case opPoint:
		for _, ob := range cands {
			if ob.Geom.ContainsPoint(o.pt) {
				matched++
			}
		}
	case opKNN:
		for _, ob := range cands {
			if ob.Geom.DistToPoint(o.pt) >= 0 {
				matched++
			}
		}
	}
	return matched
}

var sink int // keeps the compiler from discarding measured calls

// ladder runs the traced pass and fills the per-layer metrics it measures.
func (b *bench) ladder() error {
	pl, w, sz := b.rep.PerLayer, b.w, b.cfg.sz
	rec := newRecorder()
	lat50 := b.rep.EndToEnd["lat_p50_ms"]

	ops := b.stream[:min(sz.ladderOps, len(b.stream))]
	live := b.liveObjects()
	var want []uint64
	if w.durable {
		want = oracleOfLive(live).digests(ops)
	} else {
		want = b.digests[:len(ops)]
	}
	// Each operation runs on the store that owns its query centre; behind
	// the router that is the "same op sent to the owning shard directly",
	// whose answer is only the shard's part, so there only the router rung
	// is compared with the oracle.
	owner := func(i int) *node {
		if b.sys.pmap == nil {
			return b.sys.nodes[0]
		}
		return b.sys.nodes[b.sys.pmap.ShardOfKey(geom.RectFromPoint(ops[i].pt))]
	}

	lowWant := want
	if b.sys.pmap != nil {
		lowWant = nil
	}

	// Untimed: the candidates of every operation, the pages one tree search
	// touches, and the full answers the codec measurements encode.
	cands := make([][]*object.Object, len(ops))
	answers := make([]answer, len(ops))
	var searches, gets, answered, filtered int64
	for i := range ops {
		org := owner(i).org
		st0 := org.Env().Buf.Stats()
		filterRefine(org.Tree(), live, &ops[i], nil, &cands[i])
		if ops[i].kind == opWindow {
			st := org.Env().Buf.Stats()
			gets += st.Hits + st.Misses - st0.Hits - st0.Misses
			searches++
		}
		answers[i] = answerOf(org, &ops[i])
		answered += int64(len(answers[i].ids))
		filtered += int64(answers[i].candidates)
	}
	pl["rtree.pages_per_search"] = ratio(float64(gets), float64(searches))
	pl["store.candidates_per_answer"] = ratio(float64(filtered), float64(answered))

	var rungs []rungReport
	add := func(r rungReport, err error) error {
		if err == nil {
			rungs = append(rungs, r)
		}
		return err
	}
	if err := add(rung("geom", ops, nil, rec, func(i int) (uint64, error) {
		sink += exactTests(&ops[i], cands[i])
		return 0, nil
	})); err != nil {
		return err
	}
	if err := add(rung("rtree", ops, lowWant, rec, func(i int) (uint64, error) {
		return filterRefine(owner(i).org.Tree(), live, &ops[i], rec, nil), nil
	})); err != nil {
		return err
	}
	if err := add(rung("store", ops, lowWant, rec, func(i int) (uint64, error) {
		return engineTarget{owner(i).org}.exec(&ops[i])
	})); err != nil {
		return err
	}
	geomR, rtreeR, storeR := rungs[0], rungs[1], rungs[2]
	pairs := func(k opKind) (n float64) {
		for i := range ops {
			if ops[i].kind == k {
				n += float64(len(cands[i]))
			}
		}
		return n
	}
	rectUS, _ := geomR.totalOfKind(ops, opWindow)
	distUS, _ := geomR.totalOfKind(ops, opKNN)
	pl["geom.ns_per_rect_test"] = ratio(rectUS*1000, pairs(opWindow))
	pl["geom.ns_per_point_dist"] = ratio(distUS*1000, pairs(opKNN))
	pl["rtree.us_per_search"] = rtreeR.meanOfKind(ops, opWindow) - geomR.meanOfKind(ops, opWindow)
	pl["rtree.us_per_nearest"] = rtreeR.meanOfKind(ops, opKNN) - geomR.meanOfKind(ops, opKNN)
	pl["store.us_per_window"] = storeR.meanOfKind(ops, opWindow)
	pl["store.us_per_point"] = storeR.meanOfKind(ops, opPoint)
	pl["store.us_per_knn"] = storeR.meanOfKind(ops, opKNN)

	// The served rungs. Each client is built once per store.
	top := storeR
	// plainTop is the top rung again, for the overheads.
	plainTop := func(i int) (uint64, error) { return engineTarget{owner(i).org}.exec(&ops[i]) }
	var tracedTop func(i int) (uint64, error)
	if w.served {
		type ways struct{ inproc, http, bin clientTarget }
		to := make(map[*node]ways)
		for _, nd := range b.sys.nodes {
			bin := server.NewClient(nd.url, 1)
			bin.Binary = true
			to[nd] = ways{
				inproc: clientTarget{c: inProcessClient(nd.srv.Handler())},
				http:   clientTarget{c: server.NewClient(nd.url, 1)},
				bin:    clientTarget{c: bin},
			}
		}
		if err := add(rung("handler", ops, lowWant, rec, func(i int) (uint64, error) {
			return to[owner(i)].inproc.exec(&ops[i])
		})); err != nil {
			return err
		}
		plainTop = func(i int) (uint64, error) { return to[owner(i)].http.exec(&ops[i]) }
		if err := add(rung("http", ops, lowWant, rec, plainTop)); err != nil {
			return err
		}
		handlerR, httpR := rungs[3], rungs[4]
		top = httpR
		binR, err := rung("http-binary", ops, lowWant, nil, func(i int) (uint64, error) {
			return to[owner(i)].bin.exec(&ops[i])
		})
		if err != nil {
			return err
		}
		edge := server.NewClient(b.sys.edgeURL, 1)
		if b.sys.pmap != nil {
			plainTop = func(i int) (uint64, error) { return clientTarget{c: edge}.exec(&ops[i]) }
			if err := add(rung("router", ops, want, rec, plainTop)); err != nil {
				return err
			}
			top = rungs[5]
			pl["router.us_per_op"] = (top.P50MS - httpR.P50MS) * 1000
		}
		tracedTop = func(i int) (uint64, error) { return clientTarget{c: edge, traced: true}.exec(&ops[i]) }
		if !w.durable {
			pl["server.handler_us_per_op"] = (handlerR.P50MS - storeR.P50MS) * 1000
			pl["server.http_us_per_op"] = (httpR.P50MS - handlerR.P50MS) * 1000
			pl["server.exec_share"] = ratio(storeR.P50MS, lat50)
		}
		pl["server.json_us_per_op"] = (httpR.P50MS - binR.P50MS) * 1000
	}
	if !w.durable {
		pl["ladder.geom_us_per_op"] = geomR.P50MS * 1000
		pl["ladder.rtree_us_per_op"] = (rtreeR.P50MS - geomR.P50MS) * 1000
		pl["ladder.store_us_per_op"] = (storeR.P50MS - rtreeR.P50MS) * 1000
	}

	// Overheads: the top rung once more without spans (what recording them
	// costs), and once through the program's own ?trace=1.
	plainR, err := rung("plain", ops, want, nil, plainTop)
	if err != nil {
		return err
	}
	pl["bench.trace_overhead_x"] = ratio(top.MeanMS, plainR.MeanMS)
	if tracedTop != nil {
		tracedR, err := rung("traced", ops, want, nil, tracedTop)
		if err != nil {
			return err
		}
		pl["obs.trace_overhead_x"] = ratio(tracedR.MeanMS, plainR.MeanMS)
	}

	b.codecs(ops, answers)
	if err := b.snapshots(); err != nil {
		return err
	}
	fillSelf(rungs)
	if w.durable {
		// lat_p50_ms is the mutations' here, so theirs is the ladder that
		// has to explain it; the read ladder above explains the readers'.
		for i := range rungs {
			rungs[i].Name = "read:" + rungs[i].Name
		}
		writeRungs, err := b.mutationLadder(rec)
		if err != nil {
			return err
		}
		fillSelf(writeRungs)
		top = writeRungs[len(writeRungs)-1]
		rungs = append(rungs, writeRungs...)
	}
	pl["bench.unattributed_share"] = ratio(lat50-top.P50MS, lat50)
	pl["buffer.ns_per_hit"] = b.bufferHit()
	b.rep.Ladder = rungs
	b.rep.SpanSelfMS = selfByName(rec.spans)
	path := filepath.Join(b.cfg.outDir, w.Name+".trace.json")
	if err := writeSpans(path, rec.spans); err != nil {
		return err
	}
	b.logf("traced pass: %d spans written to %s", len(rec.spans), path)
	return nil
}

// liveObjects maps every stored ID to its object: the data set, or what the
// mutation stream left of it.
func (b *bench) liveObjects() map[object.ID]*object.Object {
	if b.muts != nil {
		return b.muts.live
	}
	live := make(map[object.ID]*object.Object, len(b.ds.Objects))
	for _, o := range b.ds.Objects {
		live[o.ID] = o
	}
	return live
}

// answer is the full answer of one read, kept for the codec measurements.
type answer struct {
	ids        []object.ID
	dists      []float64
	candidates int
}

func answerOf(org store.Organization, o *op) answer {
	switch o.kind {
	case opWindow:
		r := org.WindowQuery(o.win, store.TechComplete)
		return answer{ids: r.IDs, candidates: r.Candidates}
	case opPoint:
		r := org.PointQuery(o.pt)
		return answer{ids: r.IDs, candidates: r.Candidates}
	default:
		r := org.NearestQuery(o.pt, o.k)
		return answer{ids: r.IDs, dists: r.Dists, candidates: r.Candidates}
	}
}

// codecs measures the two wire formats on the ladder's requests and answers:
// encode and decode time of the binary protocol, and the bytes one operation
// puts on the wire in each format.
func (b *bench) codecs(ops []op, answers []answer) {
	const reps = 5
	reqs := make([][]byte, len(ops))
	resps := make([][]byte, len(ops))
	encode := func(i int, req, resp []byte) ([]byte, []byte) {
		o, a := &ops[i], &answers[i]
		switch o.kind {
		case opWindow:
			req = binproto.AppendWindowReq(req, [4]float64{o.win.MinX, o.win.MinY, o.win.MaxX, o.win.MaxY}, store.TechComplete)
			resp = binproto.AppendQueryResp(resp, a.ids, a.candidates)
		case opPoint:
			req = binproto.AppendPointReq(req, [2]float64{o.pt.X, o.pt.Y})
			resp = binproto.AppendQueryResp(resp, a.ids, a.candidates)
		default:
			req = binproto.AppendKNNReq(req, [2]float64{o.pt.X, o.pt.Y}, o.k)
			resp = binproto.AppendKNNResp(resp, a.ids, a.dists, a.candidates)
		}
		return req, resp
	}
	var binBytes, jsonBytes int
	for i := range ops {
		reqs[i], resps[i] = encode(i, nil, nil)
		binBytes += len(reqs[i]) + len(resps[i])
		jsonBytes += jsonSize(&ops[i], &answers[i])
	}
	var req, resp []byte
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i := range ops {
			req, resp = encode(i, req[:0], resp[:0])
		}
	}
	encNS := float64(time.Since(t0).Nanoseconds())
	var ids []uint64
	var dists []float64
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i := range ops {
			switch ops[i].kind {
			case opWindow:
				binproto.DecodeWindowReq(reqs[i])
				ids, _, _ = binproto.DecodeQueryResp(resps[i], ids[:0])
			case opPoint:
				binproto.DecodePointReq(reqs[i])
				ids, _, _ = binproto.DecodeQueryResp(resps[i], ids[:0])
			default:
				binproto.DecodeKNNReq(reqs[i])
				ids, dists, _, _ = binproto.DecodeKNNResp(resps[i], ids[:0], dists[:0])
			}
		}
	}
	decNS := float64(time.Since(t0).Nanoseconds())
	sink += len(req) + len(resp) + len(ids) + len(dists)
	n := float64(len(ops))
	pl := b.rep.PerLayer
	pl["binproto.ns_per_encode"] = encNS / (reps * n)
	pl["binproto.ns_per_decode"] = decNS / (reps * n)
	pl["binproto.bytes_per_op"] = float64(binBytes) / n
	pl["server.json_bytes_per_op"] = float64(jsonBytes) / n

	if b.sys.pmap != nil {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range ops {
				w := ops[i].win
				if ops[i].kind != opWindow {
					w = geom.RectFromPoint(ops[i].pt)
				}
				sink += len(b.sys.pmap.Overlapping(w))
			}
		}
		pl["shard.ns_per_overlapping"] = float64(time.Since(t0).Nanoseconds()) / (reps * n)
	}
}

// jsonSize is the size of one operation's request and answer bodies in the
// JSON protocol.
func jsonSize(o *op, a *answer) int {
	wire := make([]uint64, len(a.ids))
	for i, id := range a.ids {
		wire[i] = uint64(id)
	}
	var req, resp any
	switch o.kind {
	case opWindow:
		req = server.WindowRequest{Window: [4]float64{o.win.MinX, o.win.MinY, o.win.MaxX, o.win.MaxY}}
		resp = server.QueryResponse{IDs: wire, Candidates: a.candidates}
	case opPoint:
		req = server.PointRequest{Point: [2]float64{o.pt.X, o.pt.Y}}
		resp = server.QueryResponse{IDs: wire, Candidates: a.candidates}
	default:
		req = server.KNNRequest{Point: [2]float64{o.pt.X, o.pt.Y}, K: o.k}
		resp = server.KNNResponse{IDs: wire, Dists: a.dists, Candidates: a.candidates}
	}
	rq, _ := json.Marshal(req) // plain structs of numbers cannot fail to encode
	rs, _ := json.Marshal(resp)
	return len(rq) + len(rs)
}

// snapshots saves every store to a file and reopens it: what a later
// workload that restores instead of building would pay at set-up. On
// served_write the reopened copy is kept for the direct-mutation rung.
func (b *bench) snapshots() error {
	pl := b.rep.PerLayer
	var saveS, openS float64
	var bytes int64
	for i, nd := range b.sys.nodes {
		path := filepath.Join(b.tmp, fmt.Sprintf("store-%d.sdb", i))
		t0 := time.Now()
		if err := spatialcluster.Save(nd.org, path); err != nil {
			return err
		}
		saveS += time.Since(t0).Seconds()
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytes += fi.Size()
		t0 = time.Now()
		cp, err := spatialcluster.Open(path, spatialcluster.StoreConfig{BufferPages: b.bufPages()})
		if err != nil {
			return err
		}
		openS += time.Since(t0).Seconds()
		if got, want := cp.Stats().Objects, nd.org.Stats().Objects; got != want {
			return fmt.Errorf("reopened snapshot holds %d objects, the saved store %d", got, want)
		}
		if b.w.durable {
			b.copyOrg = cp // closed by cleanup
		} else if err := spatialcluster.CloseStore(cp); err != nil {
			return err
		}
	}
	pl["snapshot.save_s"], pl["snapshot.open_s"], pl["snapshot.bytes"] = saveS, openS, float64(bytes)
	return nil
}

// mutationLadder is the write half of the served_write ladder. A mutation
// can be applied only once, so each rung consumes its own batch of fresh
// mutations from the same generator — except the two lowest, which apply the
// same batch to two stores in the same state: directly to the reopened
// snapshot copy, and through the log to the served store.
func (b *bench) mutationLadder(rec *recorder) ([]rungReport, error) {
	pl, n := b.rep.PerLayer, b.cfg.sz.ladderMuts
	nd := b.sys.nodes[0]
	var rungs []rungReport
	run := func(name string, ops []op, t target) error {
		r, err := rung(name, ops, nil, rec, func(i int) (uint64, error) { return t.exec(&ops[i]) })
		rungs = append(rungs, r)
		return err
	}
	batch := b.muts.take(n)
	if err := run("store", batch, engineTarget{b.copyOrg}); err != nil {
		return nil, err
	}
	storeR := rungs[0]
	pl["store.us_per_insert"] = storeR.meanOfKind(batch, opInsert)
	pl["store.us_per_update"] = storeR.meanOfKind(batch, opUpdate)
	pl["store.us_per_delete"] = storeR.meanOfKind(batch, opDelete)
	if err := run("wal", batch, engineTarget{b.sys.wal}); err != nil {
		return nil, err
	}
	if err := run("handler", b.muts.take(n), clientTarget{c: inProcessClient(nd.srv.Handler())}); err != nil {
		return nil, err
	}
	if err := run("http", b.muts.take(n), clientTarget{c: server.NewClient(nd.url, 1)}); err != nil {
		return nil, err
	}
	walR, handlerR, httpR := rungs[1], rungs[2], rungs[3]
	pl["wal.us_per_commit"] = (walR.MeanMS - storeR.MeanMS) * 1000
	pl["ladder.store_us_per_op"] = storeR.P50MS * 1000
	pl["ladder.wal_us_per_op"] = (walR.P50MS - storeR.P50MS) * 1000
	pl["server.handler_us_per_op"] = (handlerR.P50MS - walR.P50MS) * 1000
	pl["server.http_us_per_op"] = (httpR.P50MS - handlerR.P50MS) * 1000
	pl["server.exec_share"] = ratio(walR.P50MS, b.rep.EndToEnd["lat_p50_ms"])
	return rungs, nil
}

// bufferHit times buffer.Manager.Get on resident pages.
func (b *bench) bufferHit() float64 {
	buf := b.sys.nodes[0].org.Env().Buf
	var resident []disk.PageID
	for id := disk.PageID(0); id < buf.Disk().NumPages() && len(resident) < 64; id++ {
		if buf.Contains(id) {
			resident = append(resident, id)
		}
	}
	if len(resident) == 0 {
		return 0
	}
	const gets = 200000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		sink += len(buf.Get(resident[i%len(resident)]))
	}
	return float64(time.Since(t0).Nanoseconds()) / gets
}
