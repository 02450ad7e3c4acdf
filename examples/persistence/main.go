// Persistence: build a cluster store on the file-backed storage backend,
// save it to a single snapshot file, and reopen it without a rebuild — the
// reopened store reports the same storage statistics and answers the same
// queries with the same result sets.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	sc "spatialcluster"
)

func main() {
	dir, err := os.MkdirTemp("", "spatialcluster-persistence-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// A cluster store whose pages live in a scratch file: every page
	// transfer is real I/O, and the modelled I/O costs are identical to the
	// in-memory backend. The page file is not the store's durable copy —
	// the snapshot written below is.
	s := sc.NewClusterStore(sc.StoreConfig{
		BufferPages: 128,
		SmaxBytes:   16 * 1024,
		Path:        filepath.Join(dir, "pages.db"),
	})

	// A small grid of streets.
	for i := 1; i <= 300; i++ {
		x, y := float64(i%20)/20, float64(i/20)/16
		obj := sc.NewObject(sc.ObjectID(i), sc.NewPolyline([]sc.Point{
			{X: x, Y: y}, {X: x + 0.01, Y: y + 0.02},
		}), 600)
		s.Insert(obj, obj.Bounds())
	}
	s.Flush()

	w := sc.R(0.2, 0.2, 0.7, 0.7)
	before := s.WindowQuery(w, sc.TechComplete)
	stats := s.Stats()
	fmt.Printf("built:    %d objects on %d pages, window answers %d, measured I/O %.3f s\n",
		stats.Objects, stats.OccupiedPages, len(before.IDs), sc.MeasuredIO(s).IOSeconds())

	// Save the whole store — page image plus all in-memory state — to one
	// snapshot file.
	snap := filepath.Join(dir, "store.sdb")
	if err := sc.Save(s, snap); err != nil {
		panic(err)
	}
	if err := sc.CloseStore(s); err != nil {
		panic(err)
	}
	fi, _ := os.Stat(snap)
	fmt.Printf("saved:    %s (%d bytes)\n", filepath.Base(snap), fi.Size())

	// Reopen without a rebuild. The organization kind, cluster config and
	// disk parameters come from the snapshot; here the pages are placed on
	// the in-memory backend.
	s2, err := sc.Open(snap, sc.StoreConfig{BufferPages: 128})
	if err != nil {
		panic(err)
	}
	defer sc.CloseStore(s2)

	after := s2.WindowQuery(w, sc.TechComplete)
	stats2 := s2.Stats()
	fmt.Printf("reopened: %d objects on %d pages, window answers %d\n",
		stats2.Objects, stats2.OccupiedPages, len(after.IDs))

	if stats2 != stats {
		panic("reopened store reports different storage statistics")
	}
	if len(after.IDs) != len(before.IDs) {
		panic("reopened store answers differently")
	}

	// The reopened store is fully mutable: inserts, deletes and queries
	// continue where the saved store left off.
	obj := sc.NewObject(10001, sc.NewPolyline([]sc.Point{
		{X: 0.45, Y: 0.45}, {X: 0.46, Y: 0.46},
	}), 600)
	s2.Insert(obj, obj.Bounds())
	s2.Flush()
	fmt.Printf("mutated:  %d objects after one more insert\n", s2.Stats().Objects)
}
