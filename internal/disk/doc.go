// Package disk models the magnetic-disk secondary storage that the paper's
// evaluation is based on, and owns the boundary between modelled cost and
// physical bytes.
//
// A Disk is a linear array of PageSize pages addressed by PageID (physically
// consecutive pages have consecutive IDs) plus the explicit I/O cost model
// with the three components of the paper (section 3.1):
//
//   - seek time ts     — move the head to the proper track (9 ms default)
//   - latency time tl  — rotational delay (6 ms default)
//   - transfer time tt — transfer one 4 KB page (1 ms default)
//
// A read request for k physically consecutive pages costs ts + tl + k·tt.
// Requests that continue an uninterrupted access to the same storage unit
// (paper section 5.4.3: one seek suffices per cluster unit) are charged
// tl + k·tt, and a write request that starts exactly at the current head
// position streams on at k·tt. Every experiment in this repository reports
// the times accumulated here rather than wall-clock time.
//
// Where the pages physically live is pluggable: the Backend interface
// separates the cost accountant (Disk) from the byte store. The default
// MemBackend keeps everything in memory — the original simulated disk —
// while the file-backed implementation in the nested package
// internal/disk/filebackend maps pages onto a scratch os.File with
// wall-clock Measured counters. Neither keeps pages past the process: a
// store's durable copies are its snapshot and its write-ahead log. Modelled
// costs are charged before the backend runs and are therefore identical for
// every backend; comparing them with Measured is the job of the backend
// benchmark in internal/exp.
//
// The read-schedule planners (PlanSLM, PlanRequired, schedule.go) implement
// the [SLM93] gap/break-even policy used by the cluster read techniques; the
// buffer manager in internal/buffer executes their plans.
package disk
