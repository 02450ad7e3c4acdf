package exp

import (
	"testing"
)

// TestRecoveryBenchSmoke checks the preset run of the recovery benchmark for
// its invariants: every recovered store agrees with its reference, larger
// group-commit batches mean strictly fewer fsyncs, the torn arms detect and
// discard exactly one record, and the log bytes of the append sweep are
// independent of the batch size.
func TestRecoveryBenchSmoke(t *testing.T) {
	r := preset(t, "recovery").(recoveryResult)

	if !r.Agree {
		t.Error("a recovered store disagreed with its never-crashed reference")
	}
	if len(r.Appends) != 2 { // the preset's batch sizes 1 and 16
		t.Fatalf("append rows = %d, want 2", len(r.Appends))
	}
	for i := 1; i < len(r.Appends); i++ {
		if r.Appends[i].Fsyncs >= r.Appends[i-1].Fsyncs {
			t.Errorf("sync_every %d: %d fsyncs, not fewer than sync_every %d's %d",
				r.Appends[i].SyncEvery, r.Appends[i].Fsyncs,
				r.Appends[i-1].SyncEvery, r.Appends[i-1].Fsyncs)
		}
		if r.Appends[i].WALBytes != r.Appends[0].WALBytes {
			t.Errorf("sync_every %d: %d log bytes, want %d (batch size must not change the log)",
				r.Appends[i].SyncEvery, r.Appends[i].WALBytes, r.Appends[0].WALBytes)
		}
	}
	if r.Appends[0].Fsyncs != int64(r.Ops) {
		t.Errorf("sync_every 1: %d fsyncs, want one per op (%d)", r.Appends[0].Fsyncs, r.Ops)
	}
	if len(r.Replays) != 12 { // 3 organizations x (3 tails + 1 torn arm)
		t.Fatalf("replay rows = %d, want 12", len(r.Replays))
	}
	for _, p := range r.Replays {
		want := p.TailRecords
		if p.Torn {
			want--
		}
		if p.Replayed != want || p.TornTail != p.Torn {
			t.Errorf("%s tail=%d torn=%v: replayed %d (torn detected %v), want %d (%v)",
				p.Org, p.TailRecords, p.Torn, p.Replayed, p.TornTail, want, p.Torn)
		}
	}
}
