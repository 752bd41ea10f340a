// Store-level fault sweep: run a fixed append/checkpoint workload once
// per possible filesystem fault point (and per failure mode for
// writes), then recover with the real filesystem and assert the WAL
// contract — every acknowledged record survives byte-for-byte; an
// unacknowledged record is either absent or is the single ambiguous
// record whose append failed; a fail-stopped store rejects everything
// after its first failure.
//
// The test lives in package store_test because faultfs imports store.
package store_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/store"
)

// sweepOptions is the deterministic configuration every sweep run uses:
// synchronous fsync (no background goroutine) and no automatic
// checkpoints, so the filesystem operation sequence is a pure function
// of the workload.
func sweepOptions(fs store.FS) store.Options {
	return store.Options{Fsync: store.FsyncAlways, SnapshotEvery: -1, FS: fs}
}

// sweepRecord builds the i-th workload record; its content encodes i so
// recovery can verify byte-level survival by sequence number. Every
// third record is a batch (two upserts and a remove in one frame), so
// the sweep proves the batch contract too: a fault anywhere in the
// write path leaves the batch wholly on disk or wholly absent, never
// a prefix of its entries.
func sweepRecord(i uint64) *store.Record {
	if i%3 == 0 {
		return &store.Record{Op: store.OpBatch, Batch: []store.BatchEntry{
			{Upsert: &store.UpsertOp{Side: store.External, Items: []store.Item{
				{ID: sweepID(i) + "-a", Props: map[string][]string{"http://ex.org/p": {fmt.Sprintf("value-%02d-a", i)}}},
				{ID: sweepID(i) + "-b", Props: map[string][]string{"http://ex.org/p": {fmt.Sprintf("value-%02d-b", i)}}},
			}}},
			{Remove: &store.RemoveOp{Side: store.External, IDs: []string{sweepID(i) + "-a"}}},
		}}
	}
	return &store.Record{Op: store.OpBatch, Batch: []store.BatchEntry{{Upsert: &store.UpsertOp{
		Side:  store.External,
		Items: []store.Item{{ID: sweepID(i), Props: map[string][]string{"http://ex.org/p": {fmt.Sprintf("value-%02d", i)}}}},
	}}}}
}

func sweepID(i uint64) string { return fmt.Sprintf("http://ex.org/item-%02d", i) }

// sweepOutcome is what one workload run acknowledged.
type sweepOutcome struct {
	openErr   error
	acked     []uint64
	ambiguous uint64 // seq of the append whose write/sync failed; 0 = none
}

// runSweepWorkload appends 12 records with a forced checkpoint after
// records 4 and 8, tracking acknowledgements. A record is ambiguous
// only when its own append failed against a previously healthy store —
// every later mutation is rejected by the fail-stopped store before
// touching the log and is guaranteed absent.
func runSweepWorkload(t *testing.T, dir string, fs store.FS) sweepOutcome {
	t.Helper()
	st, _, err := store.Open(dir, sweepOptions(fs))
	if err != nil {
		return sweepOutcome{openErr: err}
	}
	defer st.Close()
	var out sweepOutcome
	for i := uint64(1); i <= 12; i++ {
		healthy := st.Failed() == nil
		seq, err := st.Append(sweepRecord(i))
		switch {
		case err == nil:
			if len(out.acked) > 0 && seq != out.acked[len(out.acked)-1]+1 {
				t.Fatalf("acked sequence jumped: %d after %d", seq, out.acked[len(out.acked)-1])
			}
			out.acked = append(out.acked, seq)
		case healthy && st.Failed() != nil && out.ambiguous == 0:
			// This append's own write or sync failed: the frame may or may
			// not be on disk.
			out.ambiguous = uint64(len(out.acked)) + 1
		case healthy && st.Failed() == nil:
			t.Fatalf("append %d failed without fail-stopping the store: %v", i, err)
		}
		if i == 4 || i == 8 {
			if boundary, err := st.Rotate(); err == nil {
				// A checkpoint failure must not affect append durability;
				// the store keeps running on the fresh segment.
				_ = st.WriteCheckpoint(&store.Snapshot{Seq: boundary})
			}
		}
	}
	return out
}

// verifySweepRecovery reopens dir with the real filesystem and checks
// the recovered state against what the faulted run acknowledged.
func verifySweepRecovery(t *testing.T, dir string, out sweepOutcome) {
	t.Helper()
	st, rec, err := store.Open(dir, sweepOptions(nil))
	if err != nil {
		t.Fatalf("recovery open failed: %v (no injected fault may make a directory unopenable)", err)
	}
	defer st.Close()

	var snapSeq uint64
	if rec.Snapshot != nil {
		snapSeq = rec.Snapshot.Seq
	}
	covered := snapSeq
	for i, r := range rec.Tail {
		if want := snapSeq + uint64(i) + 1; r.Seq != want {
			t.Fatalf("recovered tail seq %d at position %d, want %d (gap or duplicate)", r.Seq, i, want)
		}
		// Acknowledged (and ambiguous) records must survive intact, not
		// merely exist: content is a pure function of the sequence number,
		// so a deep compare catches any corruption — including a batch
		// that lost or reordered entries.
		want := sweepRecord(r.Seq)
		want.Seq = r.Seq
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("recovered record %d diverged:\nwant %+v\ngot  %+v", r.Seq, want, r)
		}
		covered = r.Seq
	}
	ackedMax := uint64(len(out.acked))
	switch {
	case covered == ackedMax:
	case out.ambiguous != 0 && covered == out.ambiguous:
		// The failed append's frame reached disk after all — allowed: the
		// client got an error, not a lost acknowledgement.
	default:
		t.Fatalf("recovered through seq %d, want %d acked (or ambiguous %d)",
			covered, ackedMax, out.ambiguous)
	}
	if snapSeq > covered {
		t.Fatalf("snapshot seq %d exceeds recovered coverage %d", snapSeq, covered)
	}

	// The recovered store must be fully writable again.
	seq, err := st.Append(sweepRecord(covered + 1))
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if seq != covered+1 {
		t.Fatalf("append after recovery got seq %d, want %d", seq, covered+1)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
}

func TestFaultSweepStore(t *testing.T) {
	// Fault-free trace run: enumerate every filesystem operation the
	// workload performs.
	traceFS := faultfs.New(nil)
	traceFS.Record()
	clean := runSweepWorkload(t, t.TempDir(), traceFS)
	if clean.openErr != nil || len(clean.acked) != 12 || clean.ambiguous != 0 {
		t.Fatalf("fault-free run: %+v, want 12 acked", clean)
	}
	trace := traceFS.Trace()
	if len(trace) == 0 {
		t.Fatal("empty operation trace")
	}

	runs := 0
	for i, op := range trace {
		modes := []faultfs.Mode{faultfs.Err}
		if op.Kind == faultfs.OpWrite {
			// Writes additionally fail torn (half the payload lands) and
			// with ENOSPC (nothing lands).
			modes = append(modes, faultfs.Short, faultfs.NoSpace)
		}
		for _, mode := range modes {
			runs++
			t.Run(fmt.Sprintf("op%03d-%s-%s", i+1, op.Kind, mode), func(t *testing.T) {
				dir := t.TempDir()
				ffs := faultfs.New(nil)
				ffs.FailAt(i+1, mode)
				out := runSweepWorkload(t, dir, ffs)
				if !ffs.Fired() {
					t.Fatalf("fault %d never triggered; trace drifted from the recording", i+1)
				}
				if out.openErr != nil {
					// The fault hit during Open of the empty directory; the
					// directory must still recover to an empty, writable store.
					out = sweepOutcome{}
				}
				verifySweepRecovery(t, dir, out)
			})
		}
	}
	t.Logf("swept %d fault points over %d operations", runs, len(trace))
}

// TestCheckpointHoldoff pins the failed-checkpoint backoff contract: a
// failed snapshot write arms a holdoff that suppresses SnapshotDue for
// the next SnapshotEvery records (one retry per window, not one per
// mutation), appends keep working throughout, and the next successful
// checkpoint clears the holdoff entirely.
func TestCheckpointHoldoff(t *testing.T) {
	ffs := faultfs.New(nil)
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways, SnapshotEvery: 3, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := st.Append(sweepRecord(0)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}
	appendN(3)
	if !st.SnapshotDue() {
		t.Fatal("SnapshotDue = false after SnapshotEvery records")
	}
	boundary, err := st.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// Fail the snapshot temp-file creation: the checkpoint dies, the
	// store must not.
	ffs.FailAt(ffs.Ops()+1, faultfs.Err)
	if err := st.WriteCheckpoint(&store.Snapshot{Seq: boundary}); err == nil {
		t.Fatal("WriteCheckpoint succeeded with an injected fault")
	}
	if err := st.Failed(); err != nil {
		t.Fatalf("checkpoint failure poisoned the store: %v", err)
	}
	if st.SnapshotDue() {
		t.Fatal("SnapshotDue = true immediately after a failed checkpoint (holdoff not armed)")
	}
	appendN(2)
	if st.SnapshotDue() {
		t.Fatal("SnapshotDue = true inside the holdoff window")
	}
	appendN(1)
	if !st.SnapshotDue() {
		t.Fatal("SnapshotDue = false a full SnapshotEvery past the failed boundary")
	}
	boundary, err = st.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := st.WriteCheckpoint(&store.Snapshot{Seq: boundary}); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if st.SnapshotDue() {
		t.Fatal("SnapshotDue = true right after a successful checkpoint")
	}
	// Holdoff() is the service's hook for capture-stage failures (before
	// WriteCheckpoint is even reached): it must arm the same backoff.
	appendN(3)
	if !st.SnapshotDue() {
		t.Fatal("SnapshotDue = false after the next window")
	}
	st.Holdoff()
	if st.SnapshotDue() {
		t.Fatal("SnapshotDue = true after an explicit Holdoff")
	}
	appendN(3)
	if !st.SnapshotDue() {
		t.Fatal("SnapshotDue = false a full window past the explicit holdoff")
	}
}
