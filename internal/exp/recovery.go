package exp

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/disk"
	"spatialcluster/internal/framing"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/store"
	"spatialcluster/internal/wal"
)

// The recovery benchmark measures what the write-ahead log costs and what it
// buys. The append sweep logs the same mutation stream under increasing
// group-commit batch sizes (Options.SyncEvery) and reports fsync counts, log
// bytes and wall-clock next to a modelled fsync cost on the paper's disk —
// the modelled column is a deterministic function of (scale, ops, seed) and
// must be byte-identical across runs; the registry test enforces this by
// diffing two runs with all "wall lines stripped. The replay sweep crashes a WAL-attached
// store at increasing log tail lengths (checkpointing earlier or later) and
// measures recovery time, then verifies the recovered store answers
// window/point/k-NN probes exactly like the never-crashed one — the agree
// verdict gates the exit code of clusterbench -exp recovery. One arm per
// organization tears the final record off the log and requires recovery to
// detect it, discard it, and agree with the stream minus that one mutation.

// recoveryAppendRow reports one group-commit batch size of the append sweep.
type recoveryAppendRow struct {
	SyncEvery int   `json:"sync_every"`
	Ops       int   `json:"ops"`
	Fsyncs    int64 `json:"fsyncs"`
	WALBytes  int64 `json:"wal_bytes"`
	// ModelFsyncSec prices the fsyncs on the paper's disk: each one costs a
	// seek plus a rotational latency, and every logged page is transferred
	// once. Deterministic; byte-identical across runs.
	ModelFsyncSec float64 `json:"model_fsync_sec"`
	WallAppendSec float64 `json:"wall_append_sec"` // measured; varies
	WallPerOpUS   float64 `json:"wall_per_op_us"`  // measured; varies
}

// recoveryReplayRow reports one crash-recovery arm.
type recoveryReplayRow struct {
	Org         string `json:"org"`
	TailRecords int    `json:"tail_records"` // records the crash left in the log
	Torn        bool   `json:"torn"`         // this arm tore the final record off
	Replayed    int    `json:"replayed"`
	TornTail    bool   `json:"torn_tail"` // recovery detected the torn record
	WALBytes    int64  `json:"wal_bytes"`
	// Agree: the recovered store answers every window/point/k-NN probe
	// exactly like the never-crashed reference.
	Agree          bool    `json:"agree"`
	WallRecoverSec float64 `json:"wall_recover_sec"` // measured; varies
}

// recoveryResult is the outcome of the recovery benchmark, emitted as
// BENCH_recovery.json.
type recoveryResult struct {
	Scale int   `json:"scale"`
	Ops   int   `json:"ops"`
	Seed  int64 `json:"seed"`

	Appends []recoveryAppendRow `json:"appends"`
	Replays []recoveryReplayRow `json:"replays"`

	// Agree: every replay arm recovered the expected number of records and
	// answered identically to its reference. Gates the clusterbench exit
	// code.
	Agree bool `json:"agree"`
}

// Failed implements result.
func (r recoveryResult) Failed() []string { return failed(verdict{"agree", r.Agree}) }

// recoveryMutations generates the deterministic mutation stream of the
// benchmark: the non-query prefix of a hotspot-skewed mixed workload.
func recoveryMutations(ds *datagen.Dataset, n int, seed int64) []datagen.Op {
	ops := ds.MixedWorkload(datagen.MixSpec{Ops: 4 * n, Seed: seed, HotspotFrac: 0.5})
	muts := make([]datagen.Op, 0, n)
	for _, op := range ops {
		if op.Kind == datagen.OpWindow {
			continue
		}
		muts = append(muts, op)
		if len(muts) == n {
			break
		}
	}
	if len(muts) < n {
		panic(fmt.Sprintf("exp: recovery workload too short: %d of %d mutations", len(muts), n))
	}
	return muts
}

// storesAgree compares two stores on a probe workload: window and point
// answer sets, k-NN rank by rank.
func storesAgree(a, b store.Organization, ws []geom.Rect, pts []geom.Point) bool {
	for _, w := range ws {
		if !sameIDSet(a.WindowQuery(w, store.TechComplete).IDs,
			b.WindowQuery(w, store.TechComplete).IDs) {
			return false
		}
	}
	for _, pt := range pts {
		if !sameIDSet(a.PointQuery(pt).IDs, b.PointQuery(pt).IDs) {
			return false
		}
		ra, rb := a.NearestQuery(pt, 10), b.NearestQuery(pt, 10)
		if len(ra.IDs) != len(rb.IDs) {
			return false
		}
		for i := range ra.IDs {
			if ra.IDs[i] != rb.IDs[i] {
				return false
			}
		}
	}
	return true
}

// walSegments lists the segment files of a WAL directory, oldest first.
func walSegments(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")) // fails on a malformed pattern only
	sort.Strings(segs)
	return segs
}

// segmentEnd returns the logical end of a WAL segment file: its 16-byte
// header, then framed records (uint32 length, uint32 CRC, payload) up to a
// zero length — the zero padding of its last block — or the end of the file.
func segmentEnd(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	end := 16
	for end+8 <= len(data) && binary.LittleEndian.Uint32(data[end:]) != 0 {
		end += framing.RecordSize(int(binary.LittleEndian.Uint32(data[end:])))
	}
	return int64(min(end, len(data))), nil
}

// tornTail truncates the last bytes off the final record of the newest WAL
// segment in dir, with the padding after it, simulating a crash mid-append.
func tornTail(dir string, bytes int64) error {
	segs := walSegments(dir)
	if len(segs) == 0 {
		return fmt.Errorf("exp: no WAL segment in %s", dir)
	}
	path := segs[len(segs)-1]
	end, err := segmentEnd(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, end-bytes)
}

// walDirBytes sums the logical sizes of the segments in a WAL directory.
func walDirBytes(dir string) int64 {
	var n int64
	for _, path := range walSegments(dir) {
		if end, err := segmentEnd(path); err == nil {
			n += end
		}
	}
	return n
}

// recoveryBench runs the append sweep and the replay sweep and reports both,
// plus the agree verdict. Each arm logs 1200 mutations (240 at the smoke
// preset); the append sweep's group-commit batch sizes are 1, 4, 16 and 64
// (1 and 16), and the replay sweep leaves a sixth, half and all of the
// stream in the log tail. The WAL directories live in a temporary directory
// that is removed afterwards.
func recoveryBench(o Options, smoke bool, _ []int) result {
	o = o.WithDefaults()
	ops, syncEvery := 1200, []int{1, 4, 16, 64}
	if smoke {
		o = o.smoke(0)
		ops, syncEvery = 240, []int{1, 16}
	}
	tails := []int{ops / 6, ops / 2, ops, -1} // -1: the whole stream, its final record torn
	dir, err := os.MkdirTemp("", "spatialcluster-recovery-*")
	if err != nil {
		panic(fmt.Sprintf("exp: recovery bench temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	res := recoveryResult{Scale: o.Scale, Ops: ops, Seed: o.Seed, Agree: true}

	spec := datagen.Spec{Map: datagen.Map1, Series: datagen.SeriesA, Scale: o.Scale, Seed: o.Seed}
	ds := datagen.Generate(spec)
	muts := recoveryMutations(ds, ops, o.Seed+11)
	probeWs := ds.Windows(0.01, 8, o.Seed+13)
	probePts := ds.Points(8, o.Seed+17)
	p := disk.DefaultParams()

	// Append sweep: the same stream under each group-commit batch size, on
	// the cluster organization. Automatic checkpoints are disabled so the
	// log holds the whole stream and the fsync count is a pure function of
	// the batch size.
	for _, se := range syncEvery {
		wdir := filepath.Join(dir, fmt.Sprintf("append-%d", se))
		b := build(orgCluster, ds, o.storeConfig())
		ws, err := wal.Create(b.Org, wdir, wal.Options{SyncEvery: se, CheckpointBytes: -1})
		if err != nil {
			panic(fmt.Sprintf("exp: recovery bench: %v", err))
		}
		start := time.Now()
		applyAll(ws, muts)
		wall := time.Since(start)
		st := ws.Log().Stats()
		modelMS := float64(st.Syncs)*(p.SeekMS+p.LatencyMS) +
			float64((st.Bytes+disk.PageSize-1)/disk.PageSize)*p.TransferMS
		res.Appends = append(res.Appends, recoveryAppendRow{
			SyncEvery:     se,
			Ops:           ops,
			Fsyncs:        st.Syncs,
			WALBytes:      st.Bytes,
			ModelFsyncSec: modelMS / 1000,
			WallAppendSec: wall.Seconds(),
			WallPerOpUS:   wall.Seconds() * 1e6 / float64(ops),
		})
		o.Progress("recovery: append sync_every=%d: %d fsyncs, %d KB, model %.1f s, wall %.3f s",
			se, st.Syncs, st.Bytes/1024, modelMS/1000, wall.Seconds())
		if err := ws.Close(); err != nil {
			panic(fmt.Sprintf("exp: recovery bench: %v", err))
		}
		os.RemoveAll(wdir)
	}

	// Replay sweep: per organization, crash with each tail length in the
	// log (a checkpoint covers the rest), then once more with the final
	// record torn off.
	arm := 0
	for _, kind := range allOrgs {
		for _, tail := range tails {
			torn := tail < 0
			if torn {
				tail = ops
			}
			wdir := filepath.Join(dir, fmt.Sprintf("replay-%d", arm))
			arm++
			b := build(kind, ds, o.storeConfig())
			ws, err := wal.Create(b.Org, wdir, wal.Options{CheckpointBytes: -1})
			if err != nil {
				panic(fmt.Sprintf("exp: recovery bench: %v", err))
			}
			applyAll(ws, muts[:ops-tail])
			if ops-tail > 0 {
				if err := ws.Checkpoint(); err != nil {
					panic(fmt.Sprintf("exp: recovery bench: %v", err))
				}
			}
			applyAll(ws, muts[ops-tail:])

			// Crash: drop ws without flushing or closing. The reference for
			// the torn arm is a fresh store with the stream minus the record
			// recovery must discard.
			wantReplay := tail
			var ref store.Organization = ws
			if torn {
				if err := tornTail(wdir, 3); err != nil {
					panic(fmt.Sprintf("exp: recovery bench: %v", err))
				}
				wantReplay = tail - 1
				fresh := build(kind, ds, o.storeConfig())
				applyAll(fresh.Org, muts[:ops-1])
				ref = fresh.Org
			}

			tailBytes := walDirBytes(wdir)
			start := time.Now()
			// Recovery goes the way the daemon's does; the recovered store only
			// answers probes, so the log's checkpoint threshold never matters.
			recCfg := o.storeConfig()
			recCfg.WALPath = wdir
			rec, rst, err := spatialcluster.RecoverStore(recCfg)
			if err != nil {
				panic(fmt.Sprintf("exp: recovery bench: %v", err))
			}
			wall := time.Since(start)
			row := recoveryReplayRow{
				Org:            string(kind),
				TailRecords:    tail,
				Torn:           torn,
				Replayed:       rst.Replayed,
				TornTail:       rst.TornTail,
				WALBytes:       tailBytes,
				WallRecoverSec: wall.Seconds(),
			}
			row.Agree = rst.Replayed == wantReplay && rst.TornTail == torn &&
				storesAgree(ref, rec, probeWs, probePts)
			res.Replays = append(res.Replays, row)
			res.Agree = res.Agree && row.Agree
			o.Progress("recovery: %s tail=%d torn=%v: replayed %d, wall %.3f s, agree %v",
				kind, tail, torn, rst.Replayed, wall.Seconds(), row.Agree)
			if err := spatialcluster.CloseStore(rec); err != nil {
				panic(fmt.Sprintf("exp: recovery bench: %v", err))
			}
			os.RemoveAll(wdir)
		}
	}
	return res
}

// Render formats the result as a text report.
func (r recoveryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery benchmark: WAL append overhead and crash replay (scale 1/%d, %d mutations)\n",
		r.Scale, r.Ops)
	fmt.Fprintf(&b, "\nAppend sweep (group commit, cluster org.):\n")
	fmt.Fprintf(&b, "  %-11s %8s %8s %10s %14s %14s %14s\n",
		"sync_every", "ops", "fsyncs", "WAL KB", "model fsync s", "wall append s", "wall us/op")
	for _, a := range r.Appends {
		fmt.Fprintf(&b, "  %-11d %8d %8d %10d %14.1f %14.3f %14.1f\n",
			a.SyncEvery, a.Ops, a.Fsyncs, a.WALBytes/1024, a.ModelFsyncSec, a.WallAppendSec, a.WallPerOpUS)
	}
	fmt.Fprintf(&b, "\nReplay sweep (crash at tail length, recover, compare answers):\n")
	fmt.Fprintf(&b, "  %-14s %6s %6s %9s %10s %10s %16s %6s\n",
		"org", "tail", "torn", "replayed", "torn tail", "WAL KB", "wall recover s", "agree")
	for _, p := range r.Replays {
		fmt.Fprintf(&b, "  %-14s %6d %6v %9d %10v %10d %16.3f %6v\n",
			p.Org, p.TailRecords, p.Torn, p.Replayed, p.TornTail, p.WALBytes/1024, p.WallRecoverSec, p.Agree)
	}
	fmt.Fprintf(&b, "\nrecovered stores agree with never-crashed references: %v\n", r.Agree)
	return b.String()
}
