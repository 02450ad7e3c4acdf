package store

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestObservedWindowQueriesMatchUnobserved: what a query observes of itself —
// its tally — changes no answer and costs an uncontended query no clock:
// windows run on four goroutines answer as the same windows run one by one, a
// query alone tallies no lock wait, and a query that arrives while a mutation
// holds the write lock tallies the time it waited.
func TestObservedWindowQueriesMatchUnobserved(t *testing.T) {
	c, ds := buildClusterForQueries(t, 256)
	ws := ds.Windows(0.005, 32, 3)
	serial := make([]QueryResult, len(ws))
	for i, w := range ws {
		if serial[i] = c.WindowQuery(w, TechSLM); serial[i].LockWaitNS != 0 {
			t.Fatalf("window %d alone waited %d ns for its lock", i, serial[i].LockWaitNS)
		}
	}
	concurrent := make([]QueryResult, len(ws))
	inParallel(len(ws), 4, func(i int) { concurrent[i] = c.WindowQuery(ws[i], TechSLM) })
	for i := range ws {
		if !idsEqual(sortedIDs(concurrent[i].IDs), sortedIDs(serial[i].IDs)) || concurrent[i].Candidates != serial[i].Candidates {
			t.Fatalf("window %d: concurrent answers differ from serial", i)
		}
		if concurrent[i].LockWaitNS < 0 {
			t.Fatalf("window %d: negative lock wait %d", i, concurrent[i].LockWaitNS)
		}
	}

	env := c.Env()
	env.mu.Lock()
	behind := make(chan QueryResult)
	go func() { behind <- c.WindowQuery(ws[0], TechSLM) }()
	for end := time.Now().Add(5 * time.Second); !parkedInWindowRLock(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			env.mu.Unlock()
			t.Fatal("the window query never blocked on the held write lock")
		}
	}
	env.mu.Unlock()
	if res := <-behind; res.LockWaitNS <= 0 {
		t.Fatalf("a window behind a held write lock tallied a wait of %d ns", res.LockWaitNS)
	}
}

// parkedInWindowRLock reports whether a goroutine is blocked in a read lock
// under WindowQuery.
func parkedInWindowRLock() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*RWMutex).RLock") && strings.Contains(g, ").WindowQuery(") {
			return true
		}
	}
	return false
}
