// Server: serve a cluster store over the HTTP/JSON API and drive it as a
// client — queries, mutations, a live snapshot, metrics, and a graceful
// shutdown. The same API is what cmd/sdbd exposes on a real port and what
// curl speaks; here the server runs in-process on a loopback listener.
package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	sc "spatialcluster"
	"spatialcluster/internal/geom"
	"spatialcluster/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "spatialcluster-server-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// A cluster store with a small grid of streets.
	s := sc.NewClusterStore(sc.StoreConfig{BufferPages: 128, SmaxBytes: 16 * 1024})
	for i := 1; i <= 300; i++ {
		x, y := float64(i%20)/20, float64(i/20)/16
		obj := sc.NewObject(sc.ObjectID(i), sc.NewPolyline([]sc.Point{
			{X: x, Y: y}, {X: x + 0.01, Y: y + 0.02},
		}), 600)
		s.Insert(obj, obj.Bounds())
	}
	s.Flush()

	// Serve it: concurrent queries, group-committed mutations, bounded
	// admission, and a snapshot on shutdown.
	srv := server.New(s, server.Config{
		MaxInFlight:  64,
		SnapshotPath: filepath.Join(dir, "exit.sdb"),
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := server.NewClient(hs.URL, 8)
	fmt.Printf("serving %s at %s\n", s.Name(), hs.URL)

	// Queries over HTTP.
	win, err := client.Window(geom.R(0.2, 0.2, 0.6, 0.6), "")
	check(err)
	fmt.Printf("window [0.2,0.2 - 0.6,0.6]: %d answers of %d candidates\n",
		len(win.IDs), win.Candidates)
	knn, err := client.KNN(geom.Pt(0.5, 0.5), 5)
	check(err)
	fmt.Printf("5-NN of (0.5,0.5): ids %v, nearest %.4f, furthest %.4f\n",
		knn.IDs, knn.Dists[0], knn.Dists[len(knn.Dists)-1])

	// A mutation round trip: insert a fresh object and find it.
	obj := sc.NewObject(9001, sc.NewPolyline([]sc.Point{
		{X: 0.401, Y: 0.401}, {X: 0.402, Y: 0.402},
	}), 400)
	check(client.Insert(obj, obj.Bounds()))
	pq, err := client.Point(geom.Pt(0.4015, 0.4015))
	check(err)
	fmt.Printf("point query after insert: %d answers\n", len(pq.IDs))

	// A live snapshot, then delete the object, then load the snapshot back.
	snap := filepath.Join(dir, "live.sdb")
	sv, err := client.Save(snap)
	check(err)
	fmt.Printf("live snapshot: %d bytes\n", sv.Bytes)
	existed, err := client.Delete(9001)
	check(err)
	fmt.Printf("deleted 9001 (existed=%v)\n", existed)
	st, err := client.Load(snap)
	check(err)
	fmt.Printf("loaded snapshot back: %d objects served\n", st.Objects)

	// Metrics: executions and batches, buffer behaviour, modelled I/O.
	m, err := client.Metrics()
	check(err)
	fmt.Printf("metrics: %d batches over %d requests, buffer hit ratio %.2f, modelled I/O %.2f s\n",
		m.Batches, m.BatchedJobs, m.BufferHitRatio, m.ModelIOSec)

	// Graceful shutdown: drain, flush, snapshot.
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	check(srv.Shutdown(ctx))
	fi, err := os.Stat(filepath.Join(dir, "exit.sdb"))
	check(err)
	fmt.Printf("shutdown snapshot: %d bytes\n", fi.Size())
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
