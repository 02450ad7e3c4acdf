// Command sdb loads (or generates) a map, builds one of the three storage
// organizations — on the in-memory backend or on a real file-backed page
// store — and runs ad-hoc point, window and k-nearest-neighbor queries
// against it, reporting result counts and modelled I/O cost. With -mutate it
// applies a mixed delete/update/insert workload (optionally maintained by an
// online reclustering policy) and re-runs the queries, so clustering decay
// and its repair can be observed directly. A built store can be persisted
// with -save and brought back without a rebuild with -load.
//
// Usage:
//
//	sdb -in a1.map -org cluster -window 0.2,0.2,0.3,0.3 -tech SLM
//	sdb -org secondary -series B -scale 32 -point 0.5,0.5
//	sdb -org cluster -knn 0.5,0.5,10
//	sdb -org cluster -window 0.4,0.4,0.6,0.6 -mutate 5000 -policy threshold
//	sdb -org cluster -backend file -dbfile pages.db -save store.sdb
//	sdb -load store.sdb -window 0.4,0.4,0.6,0.6
//
// Misused flags (unknown -org/-tech/-policy/-map/-series/-backend values,
// malformed -window/-point/-knn, contradictory -load combinations) exit
// non-zero with a usage message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	sc "spatialcluster"
	"spatialcluster/internal/datagen"
	"spatialcluster/internal/exp"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/recluster"
	"spatialcluster/internal/store"
)

func parseFloats(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, got %q", n, s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// fail reports a runtime error (I/O, corrupt input) and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdb: "+format+"\n", args...)
	os.Exit(1)
}

// failUsage reports flag misuse: the error, then the flag usage, exit 2.
func failUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdb: "+format+"\n\nusage of sdb:\n", args...)
	flag.PrintDefaults()
	os.Exit(2)
}

// failStore reports a store that could not be loaded or built: flag misuse
// when the storage flags contradict each other or name something unknown
// (the library marks those errors os.ErrInvalid), a runtime error otherwise.
func failStore(err error) {
	if errors.Is(err, os.ErrInvalid) {
		failUsage("%v", err)
	}
	fail("%v", err)
}

func printStats(prefix string, org store.Organization) {
	st := org.Stats()
	fmt.Printf("%s: %d pages (%d dir, %d data, %d object), %d objects, %d live / %d dead bytes, %d units, %.1f%% utilization\n",
		prefix, st.OccupiedPages, st.DirPages, st.LeafPages, st.ObjectPages,
		st.Objects, st.LiveBytes, st.DeadBytes, st.Units, 100*st.ExtentUtil)
}

func main() {
	var (
		in       = flag.String("in", "", "map file written by mapgen (omit to generate)")
		mapID    = flag.Int("map", 1, "map to generate when -in is not given (1 or 2)")
		series   = flag.String("series", "A", "series to generate when -in is not given (A, B or C)")
		scale    = flag.Int("scale", 32, "scale to generate when -in is not given")
		orgKind  = flag.String("org", "cluster", "organization: secondary, primary or cluster")
		buddy    = flag.Int("buddy", 0, "buddy sizes for the cluster organization (0=fixed, 3=restricted)")
		bufPg    = flag.Int("buf", 256, "buffer pages")
		backend  = flag.String("backend", "mem", "page-store backend: mem (simulated only) or file (real I/O on -dbfile)")
		dbfile   = flag.String("dbfile", "", "scratch page file for -backend file: created, or taken if empty; a file holding bytes is refused")
		savePath = flag.String("save", "", "save the built (and mutated) store to this snapshot file")
		loadPath = flag.String("load", "", "load the store from a snapshot written by -save instead of building")
		window   = flag.String("window", "", "window query: x1,y1,x2,y2")
		point    = flag.String("point", "", "point query: x,y")
		knn      = flag.String("knn", "", "k-nearest-neighbor query: x,y,k")
		techStr  = flag.String("tech", "complete", "cluster read technique: complete, threshold, SLM, vector, page")
		mutate   = flag.Int("mutate", 0, "apply this many mixed workload ops (delete/update/insert/query) after the first query pass, then re-run the queries")
		policy   = flag.String("policy", "none", "reclustering policy during -mutate: none, threshold, incremental, rebuild (cluster organization only)")
		seed     = flag.Int64("seed", 0, "generation seed")
	)
	flag.Parse()

	// Validate selector flags before any (potentially slow) generation; the
	// storage flags are checked by the library when it builds the store.
	if args := flag.Args(); len(args) > 0 {
		failUsage("unexpected argument %q", args[0])
	}
	tech, err := store.TechByName(*techStr)
	if err != nil {
		failUsage("%v", err)
	}

	pol, err := recluster.ByName(*policy)
	if err != nil {
		failUsage("%v", err)
	}

	if *loadPath != "" {
		if *in != "" {
			failUsage("-load and -in are mutually exclusive (the snapshot is the data source)")
		}
		if *mutate > 0 {
			failUsage("-mutate needs a generated or -in dataset; it cannot run on a -load snapshot")
		}
	}
	if *savePath != "" && *savePath == *loadPath {
		failUsage("-save and -load point at the same file %q", *savePath)
	}

	var queryWindow *geom.Rect
	if *window != "" {
		c, err := parseFloats(*window, 4)
		if err != nil {
			failUsage("-window: %v", err)
		}
		w := geom.R(c[0], c[1], c[2], c[3])
		queryWindow = &w
	}
	var queryPoint *geom.Point
	if *point != "" {
		c, err := parseFloats(*point, 2)
		if err != nil {
			failUsage("-point: %v", err)
		}
		p := geom.Pt(c[0], c[1])
		queryPoint = &p
	}
	var knnPoint *geom.Point
	knnK := 0
	if *knn != "" {
		c, err := parseFloats(*knn, 3)
		if err != nil {
			failUsage("-knn: %v", err)
		}
		knnK = int(c[2])
		if float64(knnK) != c[2] || knnK < 1 {
			failUsage("-knn: k must be a positive integer, got %q", *knn)
		}
		p := geom.Pt(c[0], c[1])
		knnPoint = &p
	}

	cfg := sc.StoreConfig{
		BufferPages: *bufPg,
		BuddySizes:  *buddy,
		Backend:     *backend,
		Path:        *dbfile,
	}
	var org store.Organization
	var ds *datagen.Dataset

	if *loadPath != "" {
		org, err = sc.Open(*loadPath, cfg)
		if err != nil {
			failStore(err)
		}
		fmt.Printf("loaded %s from %s\n", org.Name(), *loadPath)
		printStats("storage", org)
	} else {
		// NewStore refuses a used page file only after the dataset is read
		// or generated: refuse it first.
		if st, err := os.Stat(*dbfile); *backend == sc.BackendFile && err == nil && st.Size() != 0 {
			fail("-dbfile %s holds %d bytes; a page file must be new or empty", *dbfile, st.Size())
		}
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				fail("%v", err)
			}
			var rerr error
			ds, rerr = datagen.ReadFrom(f)
			f.Close()
			if rerr != nil {
				fail("%v", rerr)
			}
		} else {
			if *mapID != 1 && *mapID != 2 {
				failUsage("unknown map %d (want 1 or 2)", *mapID)
			}
			if *series != "A" && *series != "B" && *series != "C" {
				failUsage("unknown series %q (want A, B or C)", *series)
			}
			if *scale < 1 {
				failUsage("bad scale %d", *scale)
			}
			ds = datagen.Generate(datagen.Spec{
				Map: datagen.MapID(*mapID), Series: datagen.Series((*series)[0]),
				Scale: *scale, Seed: *seed,
			})
		}
		fmt.Printf("loaded %s: %d objects\n", ds.Spec.Name(), len(ds.Objects))

		cfg.SmaxBytes = ds.Spec.SmaxBytes()
		org, err = sc.NewStore(*orgKind, cfg, ds.Objects, ds.MBRs)
		if err != nil {
			failStore(err)
		}
		// Queries start the way they do on a -load store: on a cold buffer,
		// costed from zero.
		env := org.Env()
		fmt.Printf("built %s, construction %.1f s I/O\n", org.Name(), env.Disk.Cost().TimeSec(env.Params()))
		env.Buf.Clear()
		env.Disk.ResetCost()
		if m := env.Disk.Measured(); m.IOSeconds() > 0 {
			fmt.Printf("backend %s: %.3f s measured wall-clock I/O (%d reads, %d writes)\n",
				*backend, m.IOSeconds(), m.Reads, m.Writes)
		}
		printStats("storage", org)
	}

	params := org.Env().Params()
	runQueries := func(label string) {
		if queryWindow != nil {
			exp.CoolObjectPages(org)
			res := org.WindowQuery(*queryWindow, tech)
			fmt.Printf("window query%s: %d answers of %d candidates, %.1f ms I/O (%v)\n",
				label, len(res.IDs), res.Candidates, res.Cost.TimeMS(params), res.Cost)
		}
		if queryPoint != nil {
			exp.CoolObjectPages(org)
			res := org.PointQuery(*queryPoint)
			fmt.Printf("point query%s: %d answers of %d candidates, %.1f ms I/O (%v)\n",
				label, len(res.IDs), res.Candidates, res.Cost.TimeMS(params), res.Cost)
		}
		if knnPoint != nil {
			exp.CoolObjectPages(org)
			res := org.NearestQuery(*knnPoint, knnK)
			furthest := ""
			if n := len(res.Dists); n > 0 {
				furthest = fmt.Sprintf(", nearest %.6f .. furthest %.6f", res.Dists[0], res.Dists[n-1])
			}
			fmt.Printf("%d-NN query%s: %d answers of %d candidates%s, %.1f ms I/O (%v)\n",
				knnK, label, len(res.IDs), res.Candidates, furthest, res.Cost.TimeMS(params), res.Cost)
		}
	}

	runQueries("")

	if *mutate > 0 {
		ops := ds.MixedWorkload(datagen.MixSpec{Ops: *mutate, HotspotFrac: 0.5, Seed: *seed + 1})
		ar := exp.ApplyOps(org, ops, tech)
		org.Flush()
		fmt.Printf("mutated: %d inserts, %d deletes, %d updates, %d queries, %.1f s I/O\n",
			ar.Inserts, ar.Deletes, ar.Updates, ar.Queries, ar.Cost.TimeSec(params))
		if c, ok := org.(*store.Cluster); ok {
			mr := pol.Maintain(c)
			org.Flush()
			fmt.Printf("recluster %s: %d units repacked, rebuilt=%v, %.1f s I/O\n",
				pol.Name(), mr.RepackedUnits, mr.Rebuilt, mr.Cost.TimeSec(params))
		} else if *policy != "none" {
			fmt.Printf("recluster: policy %s ignored (%s has no cluster units)\n", pol.Name(), org.Name())
		}
		printStats("storage after churn", org)
		runQueries(" after churn")
	}

	if *savePath != "" {
		if err := sc.Save(org, *savePath); err != nil {
			fail("%v", err)
		}
		st, err := os.Stat(*savePath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("saved %s to %s (%d bytes); reopen with -load %s\n",
			org.Name(), *savePath, st.Size(), *savePath)
	}

	if err := sc.CloseStore(org); err != nil {
		fail("closing backend: %v", err)
	}

	if *loadPath == "" && *savePath == "" &&
		queryWindow == nil && queryPoint == nil && knnPoint == nil && *mutate <= 0 {
		fmt.Println("no -window, -point, -knn, -mutate or -save given; stopping after construction")
	}
}
