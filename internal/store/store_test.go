package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
)

// upsertRec builds a one-item upsert, the record a single-item HTTP
// upsert logs.
func upsertRec(i int) *Record {
	return &Record{Op: OpBatch, Batch: []BatchEntry{{Upsert: &UpsertOp{
		Side: Local,
		Items: []Item{{
			ID:      fmt.Sprintf("http://ex.org/item/%d", i),
			Props:   map[string][]string{"http://ex.org/pn": {fmt.Sprintf("PN-%04d", i)}},
			Classes: []string{"http://ex.org/onto#Thing"},
		}},
	}}}}
}

func learnRec(n int) *Record {
	l := &LearnOp{Replace: n%2 == 0}
	for i := 0; i < n; i++ {
		l.Links = append(l.Links, core.Link{
			External: rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", i)),
			Local:    rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i)),
		})
	}
	return &Record{Op: OpLearn, Learn: l}
}

func removeRec(ids ...string) *Record {
	return &Record{Op: OpBatch, Batch: []BatchEntry{{Remove: &RemoveOp{Side: External, IDs: ids}}}}
}

// batchRec builds a mixed batch record: n upserts followed by a remove
// of the first upserted item, both entries in one frame.
func batchRec(n int) *Record {
	up := &UpsertOp{Side: External}
	for i := 0; i < n; i++ {
		up.Items = append(up.Items, Item{
			ID:    fmt.Sprintf("http://ex.org/batch/%d", i),
			Props: map[string][]string{"http://ex.org/pn": {fmt.Sprintf("BN-%04d", i)}},
		})
	}
	return &Record{Op: OpBatch, Batch: []BatchEntry{
		{Upsert: up},
		{Remove: &RemoveOp{Side: External, IDs: []string{"http://ex.org/batch/0"}}},
	}}
}

// plainBody is the body of the plain upsert or remove record an earlier
// build wrote for e: the entry's op byte and payload, with no batch
// count.
func plainBody(e BatchEntry) []byte {
	if e.Upsert != nil {
		return appendUpsertOp([]byte{byte(OpUpsert)}, e.Upsert)
	}
	return appendRemoveOp([]byte{byte(OpRemove)}, e.Remove)
}

func openStore(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st, rec
}

func TestRecordBodyRoundTrip(t *testing.T) {
	recs := []*Record{
		upsertRec(7),
		removeRec("http://ex.org/a", "http://ex.org/b"),
		learnRec(3),
		{Op: OpBatch, Batch: []BatchEntry{{Upsert: &UpsertOp{Side: External, Items: []Item{{ID: "x"}}}}}},
		{Op: OpLearn, Learn: &LearnOp{Replace: true}},
		{Op: OpLearn, Learn: &LearnOp{Links: []core.Link{{External: rdf.NewBlank("b0"), Local: rdf.NewIRI("l")}}}},
		batchRec(3),
		{Op: OpBatch, Batch: []BatchEntry{}},
	}
	for i, r := range recs {
		body, err := r.encodeBody()
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got := &Record{}
		if err := got.decodeBody(body); err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		r2 := *r
		r2.Seq = 0
		if !reflect.DeepEqual(&r2, got) {
			t.Errorf("record %d: round trip mismatch:\nwant %+v\ngot  %+v", i, r, got)
		}
	}
}

func TestRecordDecodeRejectsCorruptBody(t *testing.T) {
	body, err := upsertRec(1).encodeBody()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Record).decodeBody(nil); err == nil {
		t.Error("decoded empty body")
	}
	if err := new(Record).decodeBody(body[:len(body)/2]); err == nil {
		t.Error("decoded truncated body")
	}
	if err := new(Record).decodeBody(append(append([]byte(nil), body...), 0)); err == nil {
		t.Error("decoded body with trailing byte")
	}
	bad := append([]byte(nil), body...)
	bad[0] = 99 // unknown op
	if err := new(Record).decodeBody(bad); err == nil {
		t.Error("decoded unknown op")
	}

	bb, err := batchRec(2).encodeBody()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Record).decodeBody(bb[:len(bb)/2]); err == nil {
		t.Error("decoded truncated batch body")
	}
	badSub := append([]byte(nil), bb...)
	badSub[2] = byte(OpLearn) // first entry's op byte: learn is not a valid sub-op
	if err := new(Record).decodeBody(badSub); err == nil {
		t.Error("decoded batch with learn sub-op")
	}
	if _, err := (&Record{Op: OpBatch, Batch: []BatchEntry{{}}}).encodeBody(); err == nil {
		t.Error("encoded batch entry with no op set")
	}
	if _, err := (&Record{Op: OpBatch, Batch: []BatchEntry{
		{Upsert: &UpsertOp{}, Remove: &RemoveOp{}},
	}}).encodeBody(); err == nil {
		t.Error("encoded batch entry with both ops set")
	}
	for _, op := range []Op{OpUpsert, OpRemove} {
		if _, err := (&Record{Op: op, Batch: upsertRec(1).Batch}).encodeBody(); err == nil {
			t.Errorf("encoded a plain record of op %d", op)
		}
	}
	lit := learnRec(1)
	lit.Learn.Links[0].Local = rdf.NewLiteral("l")
	if _, err := lit.encodeBody(); err == nil {
		t.Error("encoded a learn record with a literal endpoint")
	}
}

// TestRecordDecodesPlainRecords: the plain upsert and remove records of
// earlier builds decode as one-entry batches, and the same write encodes
// as a batch record exactly 2 bytes longer, the entry count and the
// entry's op byte.
func TestRecordDecodesPlainRecords(t *testing.T) {
	for _, want := range []*Record{upsertRec(1), removeRec("http://ex.org/a")} {
		plain := plainBody(want.Batch[0])
		got := &Record{}
		if err := got.decodeBody(plain); err != nil {
			t.Fatalf("decoding a plain record: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("plain record decoded as %+v, want %+v", got, want)
		}
		body, err := got.encodeBody()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != len(plain)+2 || Op(body[0]) != OpBatch {
			t.Errorf("re-encoded a %d-byte plain record as op %d of %d bytes", len(plain), body[0], len(body))
		}
		if err := new(Record).decodeBody(append(plain, 0)); err == nil {
			t.Error("decoded a plain record with a trailing byte")
		}
	}
}

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	st, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if !rec.Empty() {
		t.Fatalf("fresh store not empty: %+v", rec)
	}
	var want []*Record
	for i := 0; i < 10; i++ {
		r := upsertRec(i)
		seq, err := st.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
		want = append(want, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2 := openStore(t, dir, Options{Fsync: FsyncNever})
	if rec2.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if len(rec2.Tail) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Tail), len(want))
	}
	for i, r := range rec2.Tail {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("record %d mismatch:\nwant %+v\ngot  %+v", i, want[i], r)
		}
	}
	if rec2.TornTail {
		t.Error("clean log reported torn")
	}
}

func TestStoreCorruptTailIgnored(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
		keep    int
		torn    bool
	}{
		{"torn frame", func(p string) error {
			fi, err := os.Stat(p)
			if err != nil {
				return err
			}
			return os.Truncate(p, fi.Size()-3)
		}, 4, true},
		{"crc flip", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0xff
			return os.WriteFile(p, b, 0o644)
		}, 4, true},
		{"partial header", func(p string) error {
			f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte{1, 2, 3}); err != nil {
				return err
			}
			return f.Close()
		}, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
			for i := 0; i < 5; i++ {
				if _, err := st.Append(upsertRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("want one segment, got %v (%v)", segs, err)
			}
			if err := tc.corrupt(segs[0]); err != nil {
				t.Fatal(err)
			}
			_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
			if len(rec.Tail) != tc.keep {
				t.Fatalf("kept %d records, want %d", len(rec.Tail), tc.keep)
			}
			if rec.TornTail != tc.torn {
				t.Errorf("TornTail = %v, want %v (%d/5 records)", rec.TornTail, tc.torn, tc.keep)
			}
		})
	}
}

// TestStoreAppendRejectsOversizedRecord: a frame the replayer would
// reject as corrupt must never be acknowledged — the cap violation is a
// clean error that leaves the store usable.
func TestStoreAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	big := upsertRec(0)
	big.Batch[0].Upsert.Items[0].Props["http://ex.org/p"] = []string{strings.Repeat("x", maxWALRecord+1)}
	if _, err := st.Append(big); err == nil {
		t.Fatal("append acknowledged a record over the wal frame cap")
	}
	if _, err := st.Append(upsertRec(1)); err != nil {
		t.Fatalf("store unusable after oversized-record rejection: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 1 {
		t.Fatalf("recovery after rejection: %+v", rec)
	}
}

// TestStoreRotateFailureFailsStop: when rotation closes the old segment
// but cannot create the next one, the store must fail-stop — the next
// Append would otherwise buffer into the closed file, consume a
// sequence slot and poison the store with a misleading error.
func TestStoreRotateFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	for i := 0; i < 3; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Collide with the next segment name: createWALSegment uses O_EXCL.
	if err := os.WriteFile(filepath.Join(dir, walName(4)), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rotate(); err == nil {
		t.Fatal("rotate succeeded despite segment collision")
	}
	if _, err := st.Append(upsertRec(3)); err == nil {
		t.Fatal("append acknowledged after failed rotation left no open segment")
	}
	if err := os.Remove(filepath.Join(dir, walName(4))); err != nil {
		t.Fatal(err)
	}
	// Restart recovers everything acknowledged before the failure.
	_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if len(rec.Tail) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Tail))
	}
}

// TestStoreTornTailSurvivesSecondCrash: tolerating a torn tail must
// also truncate it, because the process may die again before a
// checkpoint prunes the sealed segment — the next Open then replays it
// as a mid-log segment, where corruption is (rightly) fatal.
func TestStoreTornTailSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	for i := 0; i < 3; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	// Crash 1: a torn trailing frame.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if !rec.TornTail || len(rec.Tail) != 3 {
		t.Fatalf("first recovery: torn=%v tail=%d, want torn with 3 records", rec.TornTail, len(rec.Tail))
	}
	// Crash 2: one more acknowledged record, then die with no checkpoint
	// ever pruning the sealed torn segment.
	if _, err := st2.Append(upsertRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := openStore(t, dir, Options{Fsync: FsyncNever})
	if rec2.TornTail {
		t.Error("second recovery still reports a torn tail")
	}
	if len(rec2.Tail) != 4 {
		t.Fatalf("second recovery kept %d records, want 4", len(rec2.Tail))
	}
	for i, r := range rec2.Tail {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

func TestStoreCheckpointAndPrune(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever, KeepSnapshots: 2})
	for i := 0; i < 6; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if boundary != 6 {
		t.Fatalf("rotate boundary %d, want 6", boundary)
	}
	// Appends continue into the new segment while the checkpoint writes.
	if _, err := st.Append(upsertRec(6)); err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.NewIRI("http://ex.org/s"), rdf.NewIRI("http://ex.org/p"), rdf.NewLiteral("v")))
	snap := &Snapshot{
		Seq: boundary, External: g, Local: rdf.NewGraph(), Ontology: rdf.NewGraph(),
		Links: []core.Link{{External: rdf.NewIRI("e"), Local: rdf.NewIRI("l")}},
		Meta:  Meta{Learned: true},
		Model: testModels()[0],
	}
	if err := st.WriteCheckpoint(snap); err != nil {
		t.Fatal(err)
	}

	stats := st.Stats()
	if stats.LastSnapshotSeq != 6 || stats.Seq != 7 || stats.WALRecords != 1 {
		t.Fatalf("stats after checkpoint: %+v", stats)
	}
	// The pre-rotation segment must be gone: its records are all covered.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 || !strings.HasSuffix(segs[0], walName(7)) {
		t.Fatalf("segments after prune: %v", segs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: snapshot + the one tail record after it.
	_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if rec.Snapshot == nil || rec.Snapshot.Seq != 6 {
		t.Fatalf("recovered snapshot: %+v", rec.Snapshot)
	}
	if rec.Snapshot.External.Len() != 1 || !rec.Snapshot.Meta.Learned ||
		!sameModel(rec.Snapshot.Model, snap.Model) || len(rec.Snapshot.Links) != 1 {
		t.Fatalf("snapshot content lost: %+v", rec.Snapshot)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 7 {
		t.Fatalf("tail after checkpoint: %+v", rec.Tail)
	}
}

func TestStoreSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever, KeepSnapshots: 2})
	for ck := 0; ck < 4; ck++ {
		if _, err := st.Append(upsertRec(ck)); err != nil {
			t.Fatal(err)
		}
		boundary, err := st.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		snap := &Snapshot{Seq: boundary, External: rdf.NewGraph(), Local: rdf.NewGraph(), Ontology: rdf.NewGraph()}
		if err := st.WriteCheckpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2: %v", len(snaps), snaps)
	}
	if st.Stats().Checkpoints != 4 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

func TestStoreCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever, KeepSnapshots: 3})
	writeCkpt := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := st.Append(upsertRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		boundary, err := st.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		g := rdf.NewGraph()
		for i := 0; i < n; i++ {
			g.Add(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex.org/%d", i)), rdf.NewIRI("http://ex.org/p"), rdf.NewLiteral("v")))
		}
		if err := st.WriteCheckpoint(&Snapshot{Seq: boundary, External: g, Local: rdf.NewGraph(), Ontology: rdf.NewGraph()}); err != nil {
			t.Fatal(err)
		}
	}
	writeCkpt(1) // snapshot at seq 1
	writeCkpt(2) // snapshot at seq 3
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot; recovery must fall back to the older
	// one and replay the WAL after it. But the WAL between the two was
	// pruned — recovery must detect the gap rather than silently lose
	// the records.
	b, err := os.ReadFile(snapshotPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(snapshotPath(dir, 3), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{Fsync: FsyncNever})
	if err == nil {
		t.Fatal("open succeeded despite unrecoverable gap (newest snapshot corrupt, WAL pruned)")
	}
}

func TestStoreCorruptSnapshotWithIntactWAL(t *testing.T) {
	// When the newest snapshot is corrupt but the WAL still holds every
	// record since the older snapshot, recovery falls back cleanly.
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever, KeepSnapshots: 3})
	boundary, err := st.Rotate() // 0: baseline, empty
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&Snapshot{Seq: boundary, External: rdf.NewGraph(), Local: rdf.NewGraph(), Ontology: rdf.NewGraph()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Write a snapshot at seq 3 WITHOUT rotating: the WAL keeps all
	// records, so corrupting this snapshot loses nothing.
	if err := st.WriteCheckpoint(&Snapshot{Seq: 3, External: rdf.NewGraph(), Local: rdf.NewGraph(), Ontology: rdf.NewGraph()}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snapshotPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(snapshotPath(dir, 3), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if rec.SkippedSnapshots != 1 {
		t.Errorf("SkippedSnapshots = %d, want 1", rec.SkippedSnapshots)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 0 {
		t.Fatalf("fallback snapshot: %+v", rec.Snapshot)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail: %d records, want 3", len(rec.Tail))
	}
}

func TestStoreRestartWithoutMutations(t *testing.T) {
	// Repeated restarts with no traffic must not collide on segment
	// names or accumulate files.
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		st, rec, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if !rec.Empty() {
			t.Fatalf("open %d: state appeared from nowhere", i)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments after restarts: %v", segs)
	}
}

func TestStoreMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	for i := 0; i < 3; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 2 {
		t.Fatalf("want two segments: %v", segs)
	}
	// Corrupt the FIRST (non-final) segment: that is acknowledged data
	// with records after it, so recovery must fail loudly.
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Fsync: FsyncNever}); err == nil {
		t.Fatal("open succeeded despite mid-log corruption")
	}
}

func TestSnapshotFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.NewIRI("http://ex.org/s"), rdf.NewIRI("http://ex.org/p"), rdf.NewLiteral("v")))
	snap := &Snapshot{
		Seq: 42, External: g, Local: rdf.NewGraph(), Ontology: rdf.NewGraph(),
		Links: []core.Link{{External: rdf.NewIRI("http://ex.org/e"), Local: rdf.NewBlank("l")}},
		Meta:  Meta{Learned: true},
		// The served model, with rules over every term kind and a
		// segment that is not valid UTF-8.
		Model: testModels()[0],
	}
	path, _, err := writeSnapshotFile(OSFS(), dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || got.External.Len() != 1 || !got.Meta.Learned {
		t.Fatalf("round trip: %+v", got)
	}
	if !sameModel(got.Model, snap.Model) {
		t.Fatalf("model section did not round-trip:\ngot  %+v\nwant %+v", got.Model, snap.Model)
	}
	if !reflect.DeepEqual(got.Links, snap.Links) {
		t.Fatalf("links section did not round-trip: %+v", got.Links)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[cut] ^= 0x20
		badPath := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshotFile(badPath); err == nil {
			t.Errorf("read corrupt snapshot (flip at %d) without error", cut)
		}
	}
	if _, err := readSnapshotFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("read missing snapshot without error")
	}
}

func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"never": FsyncNever, "interval": FsyncInterval, "always": FsyncAlways,
		"ALWAYS": FsyncAlways, " never ": FsyncNever, "": FsyncInterval,
	} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncMode("bogus"); err == nil {
		t.Error("ParseFsyncMode accepted bogus mode")
	}
}

func TestStoreFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval, FsyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStore(t, dir, Options{Fsync: mode})
			for i := 0; i < 20; i++ {
				if _, err := st.Append(upsertRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openStore(t, dir, Options{Fsync: mode})
			if len(rec.Tail) != 20 {
				t.Fatalf("mode %v: recovered %d/20 records", mode, len(rec.Tail))
			}
		})
	}
}

// TestStoreAbandonedUnflushedRecovers pins two crash shapes the review
// caught: (1) with fsync=never every acknowledged record must still
// reach the OS before Append returns, so abandoning the store without
// Close (as SIGKILL would) loses nothing while the machine stays up;
// (2) a zero-byte trailing segment file (header torn away) is ignored
// like any torn tail instead of bricking Open.
func TestStoreAbandonedUnflushedRecovers(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append(upsertRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Sync: simulate SIGKILL by abandoning the writer.
	_, rec := openStore(t, dir, Options{Fsync: FsyncNever})
	if len(rec.Tail) != 3 {
		t.Fatalf("recovered %d/3 records appended with fsync=never", len(rec.Tail))
	}

	// Truncate the newest segment to zero bytes (torn header) and add an
	// empty stray segment: recovery must shrug both off.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err := os.Truncate(segs[len(segs)-1], 0); err != nil {
		t.Fatal(err)
	}
	_, rec2 := openStore(t, dir, Options{Fsync: FsyncNever})
	if len(rec2.Tail) != 3 {
		t.Fatalf("zero-byte trailing segment broke recovery: %d records", len(rec2.Tail))
	}
	if !rec2.TornTail {
		t.Error("zero-byte trailing segment not reported as torn")
	}
}

// TestStoreZeroByteMidLogFails: an empty segment in the MIDDLE of the
// log hides acknowledged records behind it, so Open must refuse.
func TestStoreZeroByteMidLogFails(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, err := st.Append(upsertRec(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(upsertRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 2 {
		t.Fatalf("want 2 segments: %v", segs)
	}
	if err := os.Truncate(segs[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Fsync: FsyncNever}); err == nil {
		t.Fatal("open succeeded with a zero-byte mid-log segment")
	}
}

// TestStoreAllSnapshotsCorruptRefuses: snapshot files exist but none
// validates and the WAL is empty — treating that as a fresh store would
// silently reseed over acknowledged data, so Open must refuse.
func TestStoreAllSnapshotsCorruptRefuses(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	if _, err := st.Append(upsertRec(0)); err != nil {
		t.Fatal(err)
	}
	boundary, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&Snapshot{Seq: boundary, External: rdf.NewGraph(), Local: rdf.NewGraph(), Ontology: rdf.NewGraph()}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, p := range snaps {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Remove the (empty) current WAL segment too, so the directory looks
	// maximally like a fresh store apart from the corrupt snapshots.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Open(dir, Options{Fsync: FsyncNever}); err == nil {
		t.Fatal("open treated a store with only corrupt snapshots as empty")
	}
}
