package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spatialcluster/internal/disk"
	"spatialcluster/internal/disk/filebackend"
)

// modelPages is the disk size of FuzzBufferModel: three times the largest
// capacity, and enough pages that some share a ghost-list part.
const modelPages = 24

// model is the reference FuzzBufferModel holds the Manager to: the buffer
// as a textbook describes it, with one recency list per queue, over a disk
// whose modelled cost is counted request by request. It shares no code with
// the Manager.
type model struct {
	capacity int
	twoQ     bool
	disk     map[disk.PageID][]byte // what the disk holds
	frames   map[disk.PageID]*modelFrame
	am, a1   []disk.PageID // LRU / FIFO order, most recent first
	ghosts   [16]modelGhost
	stats    Stats
	cost     disk.Cost
	head     disk.PageID // page after the last transfer: a write starting here streams on
}

type modelFrame struct {
	data  []byte
	dirty bool
	pins  int
}

// modelGhost is one part of 2Q's A1out: a FIFO of evicted probationers
// bounded to max(1, capacity/32) live IDs. A promoted ID leaves its slot
// behind, and trimming a slot forgets its ID even when it was added again
// since — the partitioned, slot-trimmed list is part of the policy.
type modelGhost struct {
	fifo []disk.PageID
	live map[disk.PageID]bool
}

func (md *model) ghost(id disk.PageID) *modelGhost {
	return &md.ghosts[uint64(id)*0x9E3779B97F4A7C15>>60]
}

func (md *model) read(start disk.PageID, n int, chained bool) {
	if !chained {
		md.cost.Seeks++
	}
	md.cost.Rotations++
	md.cost.ReadRequests++
	md.cost.PagesRead += int64(n)
	md.head = start + disk.PageID(n)
}

// writeBack writes the maximal run of consecutive dirty pages around id as
// one request.
func (md *model) writeBack(id disk.PageID) {
	dirty := func(p disk.PageID) bool { f := md.frames[p]; return f != nil && f.dirty }
	if !dirty(id) {
		return
	}
	start, end := id, id
	for dirty(start - 1) {
		start--
	}
	for dirty(end + 1) {
		end++
	}
	if start != md.head {
		md.cost.Seeks++
		md.cost.Rotations++
	}
	for p := start; p <= end; p++ {
		md.frames[p].dirty = false
		md.disk[p] = md.frames[p].data
	}
	n := int64(end - start + 1)
	md.cost.WriteRequests++
	md.cost.PagesWritten += n
	md.stats.Flushed += n
	md.head = end + 1
}

func (md *model) touch(id disk.PageID) {
	if i := slices.Index(md.am, id); i >= 0 {
		md.am = slices.Insert(slices.Delete(md.am, i, i+1), 0, id)
	}
}

func (md *model) remove(id disk.PageID) {
	delete(md.frames, id)
	md.am = slices.DeleteFunc(md.am, func(p disk.PageID) bool { return p == id })
	md.a1 = slices.DeleteFunc(md.a1, func(p disk.PageID) bool { return p == id })
}

// victim is the least recent unpinned frame of the preferred queue, else of
// the other one.
func (md *model) victim() (disk.PageID, bool) {
	oldest := func(q []disk.PageID) (disk.PageID, bool) {
		for i := len(q) - 1; i >= 0; i-- {
			if md.frames[q[i]].pins == 0 {
				return q[i], true
			}
		}
		return 0, false
	}
	prefer, other := md.am, md.a1
	if md.twoQ && len(md.a1) >= max(1, md.capacity/4) {
		prefer, other = md.a1, md.am
	}
	if v, ok := oldest(prefer); ok {
		return v, true
	}
	return oldest(other)
}

func (md *model) insert(id disk.PageID, data []byte, dirty bool) {
	if f := md.frames[id]; f != nil {
		if dirty || !f.dirty {
			f.data = data
		}
		f.dirty = f.dirty || dirty
		md.touch(id)
		return
	}
	for len(md.frames) >= md.capacity {
		v, ok := md.victim()
		if !ok {
			break // everything pinned: overflow
		}
		md.writeBack(v)
		if slices.Contains(md.a1, v) {
			g := md.ghost(v)
			if !g.live[v] {
				g.live[v] = true
				g.fifo = append(g.fifo, v)
				for len(g.live) > max(1, md.capacity/32) {
					delete(g.live, g.fifo[0])
					g.fifo = g.fifo[1:]
				}
			}
		}
		md.remove(v)
		md.stats.Evictions++
	}
	md.frames[id] = &modelFrame{data: data, dirty: dirty}
	if g := md.ghost(id); md.twoQ && !g.live[id] {
		md.a1 = slices.Insert(md.a1, 0, id)
	} else {
		delete(g.live, id)
		md.am = slices.Insert(md.am, 0, id)
	}
}

func (md *model) get(id disk.PageID) []byte {
	if f := md.frames[id]; f != nil {
		md.stats.Hits++
		md.touch(id)
		return f.data
	}
	md.stats.Misses++
	md.read(id, 1, false)
	md.insert(id, md.disk[id], false)
	return md.disk[id]
}

func (md *model) missing(pages []disk.PageID) []disk.PageID {
	var missing []disk.PageID
	for i, id := range pages {
		if slices.Contains(pages[:i], id) {
			continue
		}
		if md.frames[id] != nil {
			md.stats.Hits++
			md.touch(id)
		} else {
			md.stats.Misses++
			missing = append(missing, id)
		}
	}
	slices.Sort(missing)
	return missing
}

// executePlan admits what the disk holds when each page's turn comes: a run
// read before an eviction wrote one of its pages back has that page's new
// content, not the copy it transferred.
func (md *model) executePlan(runs []disk.Run, requested []disk.PageID, vector bool) {
	for i, r := range runs {
		md.read(r.Start, r.N, i > 0)
		for id := r.Start; id < r.End(); id++ {
			if !vector || slices.Contains(requested, id) {
				md.insert(id, md.disk[id], false)
			}
		}
	}
}

func (md *model) flush() {
	var dirty []disk.PageID
	for id, f := range md.frames {
		if f.dirty {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	for _, id := range dirty {
		md.writeBack(id)
	}
}

func (md *model) pinned(id disk.PageID) bool {
	f := md.frames[id]
	return f != nil && f.pins > 0
}

// samePage compares page contents up to trailing zeros: the file backend
// returns whole zero-padded pages.
func samePage(a, b []byte) bool {
	return bytes.Equal(bytes.TrimRight(a, "\x00"), bytes.TrimRight(b, "\x00"))
}

// check holds the Manager's observable state to the model's after a step.
func (md *model) check(t *testing.T, m *Manager, d *disk.Disk, step int) {
	t.Helper()
	ghosts := 0
	for i := range md.ghosts {
		ghosts += len(md.ghosts[i].live)
	}
	if m.Len() != len(md.frames) || m.ProbationLen() != len(md.a1) || m.GhostLen() != ghosts {
		t.Fatalf("step %d: len/probation/ghost = %d/%d/%d, model %d/%d/%d", step,
			m.Len(), m.ProbationLen(), m.GhostLen(), len(md.frames), len(md.a1), ghosts)
	}
	if st := m.Stats(); st != md.stats {
		t.Fatalf("step %d: stats %+v, model %+v", step, st, md.stats)
	}
	if c := d.Cost(); c != md.cost {
		t.Fatalf("step %d: disk cost %+v, model %+v", step, c, md.cost)
	}
	var dirty []disk.PageID
	for id := disk.PageID(0); id < modelPages; id++ {
		f := md.frames[id]
		data, ok := m.Peek(id)
		switch {
		case ok != (f != nil):
			t.Fatalf("step %d: page %d resident %v, model %v (pinned pages never leave)", step, id, ok, f != nil)
		case ok && !samePage(data, f.data):
			t.Fatalf("step %d: page %d buffered as %v, model %v", step, id, data, f.data)
		case !samePage(d.Peek(id), md.disk[id]):
			t.Fatalf("step %d: page %d on disk %v, model %v", step, id, d.Peek(id), md.disk[id])
		}
		if f != nil && f.dirty {
			dirty = append(dirty, id)
		} else if ok && !samePage(data, d.Peek(id)) {
			t.Fatalf("step %d: clean page %d differs from its disk page", step, id)
		}
	}
	if got := m.pages(true); !slices.Equal(got, dirty) {
		t.Fatalf("step %d: dirty pages %v, model %v", step, got, dirty)
	}
}

// runModel decodes a buffer configuration and an op sequence from data and
// runs both on a Manager and on the model, comparing after every step. The
// first byte picks the capacity (1–8), the policy and the backend (memory
// when cfg>>4%3 is 0, the file backend otherwise); each op is three bytes:
// code, page, argument.
func runModel(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg, ops := data[0], data[1:]
	capacity, twoQ := 1+int(cfg%8), cfg&8 != 0
	var backend disk.Backend = disk.NewMemBackend()
	if cfg>>4%3 > 0 {
		fb, err := filebackend.Open(filepath.Join(t.TempDir(), "pages"))
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		backend = fb
	}
	d := disk.NewWithBackend(disk.DefaultParams(), backend)
	d.Grow(modelPages)
	md := &model{capacity: capacity, twoQ: twoQ, disk: map[disk.PageID][]byte{}, frames: map[disk.PageID]*modelFrame{}}
	for i := range md.ghosts {
		md.ghosts[i].live = map[disk.PageID]bool{}
	}
	for id := disk.PageID(0); id < modelPages; id++ {
		md.disk[id] = []byte{0x40 | byte(id)}
		d.Poke(id, md.disk[id])
	}
	policy := PolicyLRU
	if twoQ {
		policy = Policy2Q
	}
	m := NewWithPolicy(d, capacity, policy)

	single := map[disk.PageID]int{} // pins taken by Pin
	var sets [][]disk.PageID        // pins taken by PinPages, released by UnpinPages
	for step := 0; len(ops) >= 3 && step < 256; step++ {
		op, a, b := ops[0]%15, disk.PageID(ops[1])%modelPages, ops[2]
		ops = ops[3:]
		switch op {
		case 0:
			if got, want := m.Get(a), md.get(a); !samePage(got, want) {
				t.Fatalf("step %d: Get(%d) = %v, model %v", step, a, got, want)
			}
		case 1:
			page := []byte{byte(a), byte(step), b | 0x80}
			m.Put(a, page)
			md.insert(a, page, true)
		case 2, 3:
			f := md.frames[a]
			got, ok := m.Peek(a)
			if op == 2 {
				got, ok = m.Touch(a)
				md.touch(a)
			}
			if ok != (f != nil) || ok && !samePage(got, f.data) {
				t.Fatalf("step %d: op %d on page %d = %v %v, model %v", step, op, a, got, ok, f)
			}
		case 4:
			if ok := m.Pin(a); ok != (md.frames[a] != nil) {
				t.Fatalf("step %d: Pin(%d) = %v", step, a, ok)
			} else if ok {
				md.frames[a].pins++
				single[a]++
			}
		case 5:
			if single[a] > 0 {
				m.Unpin(a)
				md.frames[a].pins--
				single[a]--
			}
		case 6:
			ids := []disk.PageID{a, (a + 1) % modelPages, (a + disk.PageID(b)) % modelPages}
			var want []disk.PageID
			for _, id := range ids {
				if md.frames[id] != nil {
					md.frames[id].pins++
					want = append(want, id)
				}
			}
			got := m.PinPages(nil, ids)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: PinPages(%v) = %v, model %v", step, ids, got, want)
			}
			sets = append(sets, got)
		case 7:
			if len(sets) > 0 {
				set := sets[len(sets)-1]
				sets = sets[:len(sets)-1]
				m.UnpinPages(set)
				for _, id := range set {
					md.frames[id].pins--
				}
			}
		case 8:
			pages := []disk.PageID{a, (a + 1) % modelPages, a, (a + disk.PageID(b)) % modelPages}[:1+b%4]
			if got, want := m.Missing(pages, nil, nil), md.missing(pages); !slices.Equal(got, want) {
				t.Fatalf("step %d: Missing(%v) = %v, model %v", step, pages, got, want)
			}
		case 9, 10:
			runs, requested := planFrom(a, b)
			m.ExecutePlan(runs, requested, op == 10, nil, nil)
			md.executePlan(runs, requested, op == 10)
		case 11:
			m.Flush()
			md.flush()
		case 12:
			if !md.pinned(a) {
				m.Drop(a)
				md.remove(a)
			}
		case 13:
			if md.anyPinned() {
				break
			}
			m.Clear()
			md.flush()
			md.frames, md.am, md.a1 = map[disk.PageID]*modelFrame{}, nil, nil
			for i := range md.ghosts {
				md.ghosts[i] = modelGhost{live: map[disk.PageID]bool{}}
			}
		case 14:
			keep := func(id disk.PageID) bool { return md.pinned(id) || (id+a)%3 != 0 }
			m.Retain(keep)
			md.flush()
			for id := range md.frames {
				if !keep(id) {
					md.remove(id)
				}
			}
		}
		md.check(t, m, d, step)
	}
}

func (md *model) anyPinned() bool {
	for _, f := range md.frames {
		if f.pins > 0 {
			return true
		}
	}
	return false
}

// planFrom decodes a read schedule of one or two ascending runs starting at
// page a, and the pages a vector read admits.
func planFrom(a disk.PageID, b byte) ([]disk.Run, []disk.PageID) {
	runs := []disk.Run{{Start: a, N: min(1+int(b%4), modelPages-int(a))}}
	if next := runs[0].End() + 1 + disk.PageID(b>>5%3); b&0x10 != 0 && next < modelPages {
		runs = append(runs, disk.Run{Start: next, N: min(1+int(b>>2%3), modelPages-int(next))})
	}
	var requested []disk.PageID
	for _, r := range runs {
		for id := r.Start; id < r.End(); id++ {
			if id == r.Start || (int(id)*7+int(b))%3 != 0 {
				requested = append(requested, id)
			}
		}
	}
	return runs, requested
}

// modelSeeds are FuzzBufferModel's seed inputs: the sequence of
// TestExecutePlanDirtyPageEvictedMidPlan under both policies, a write-back
// that clusters below its victim, and a seeded random op stream for every
// capacity × policy × backend.
func modelSeeds() map[string][]byte {
	// Capacity 2: dirty page 5 becomes the victim while run [3,6) is
	// admitted, then is read back.
	midPlan := []byte{1, 5, 0, 0, 8, 0, 9, 3, 2, 0, 5, 0}
	seeds := map[string][]byte{
		"dirty_evicted_mid_plan_lru": append([]byte{1}, midPlan...),
		"dirty_evicted_mid_plan_2q":  append([]byte{1 | 8}, midPlan...),
		// Capacity 2: the victim, dirty page 3, is the top of the dirty run
		// [2,4) that its write-back clusters into one request.
		"write_cluster_below_victim": {1, 1, 3, 0, 1, 2, 0, 0, 10, 0},
	}
	rng := rand.New(rand.NewSource(27))
	for cfg := 0; cfg < 48; cfg++ {
		data := []byte{byte(cfg%16 | cfg/16<<4)}
		for i := 0; i < 60; i++ {
			data = append(data, byte(rng.Intn(15)), byte(rng.Intn(modelPages)), byte(rng.Intn(256)))
		}
		seeds[fmt.Sprintf("stream_cap%d_%s_backend%d", 1+cfg%8, Policy(cfg/8%2), cfg/16)] = data
	}
	return seeds
}

// TestBufferModelSeedCorpus keeps testdata/fuzz/FuzzBufferModel equal to
// modelSeeds; REGEN_CORPUS=1 rewrites it. go test replays those files
// through FuzzBufferModel.
func TestBufferModelSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBufferModel")
	for name, data := range modelSeeds() {
		path := filepath.Join(dir, "seed_"+name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if os.Getenv("REGEN_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is missing or stale (regenerate with REGEN_CORPUS=1)", path)
		}
	}
}

// FuzzBufferModel is a differential against the reference model: any op
// sequence at any capacity, policy and backend must leave the Manager's
// resident, dirty and queue sizes, statistics, disk bytes and modelled disk
// cost equal to the model's, with reads returning the last bytes written
// and no pinned page evicted.
func FuzzBufferModel(f *testing.F) {
	f.Fuzz(runModel)
}
