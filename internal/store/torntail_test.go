package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tornRecord builds the i-th record for the torn-tail sweep.
func tornRecord(i uint64) *Record {
	return &Record{Op: OpBatch, Batch: []BatchEntry{{Upsert: &UpsertOp{
		Side:  External,
		Items: []Item{{ID: fmt.Sprintf("http://ex.org/t%d", i), Props: map[string][]string{"http://ex.org/p": {fmt.Sprintf("v%d", i)}}}},
	}}}}
}

// walFrameOffsets parses a segment file's frame layout: the byte offset
// where each frame starts, after the magic header.
func walFrameOffsets(t *testing.T, raw []byte) []int64 {
	t.Helper()
	if string(raw[:len(walMagic)]) != walMagic {
		t.Fatalf("segment does not start with the WAL magic")
	}
	var offs []int64
	off := int64(len(walMagic))
	for off < int64(len(raw)) {
		offs = append(offs, off)
		if int64(len(raw)) < off+8 {
			t.Fatalf("trailing garbage at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(raw[off : off+4])
		off += 8 + int64(n)
	}
	if off != int64(len(raw)) {
		t.Fatalf("frames end at %d, file is %d bytes", off, len(raw))
	}
	return offs
}

// copyDirFiles copies every regular file of src into dst.
func copyDirFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailEveryByteOffset sweeps a crash-truncated WAL tail across
// every byte offset of the final frame: wherever the cut lands — inside
// the length header, the CRC, or the payload — recovery must keep every
// record before the torn frame, report the tail torn (except at the
// exact frame boundary, which is a clean shutdown shape), and accept
// new appends afterwards.
func TestTornTailEveryByteOffset(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	st, _, err := Open(src, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const records = 5
	for i := uint64(1); i <= records; i++ {
		if _, err := st.Append(tornRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	offs := walFrameOffsets(t, raw)
	if len(offs) != records {
		t.Fatalf("parsed %d frames, want %d", len(offs), records)
	}
	lastStart, size := offs[records-1], int64(len(raw))
	t.Logf("sweeping %d truncation offsets across the final frame", size-lastStart)

	for cut := lastStart; cut < size; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%05d", cut))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDirFiles(t, src, dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(segs[0])), cut); err != nil {
			t.Fatal(err)
		}

		st, rec, err := Open(dir, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: recovery refused: %v", cut, err)
		}
		if len(rec.Tail) != records-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Tail), records-1)
		}
		for i, r := range rec.Tail {
			want := tornRecord(uint64(i + 1))
			if r.Seq != uint64(i+1) || r.Batch[0].Upsert.Items[0].ID != want.Batch[0].Upsert.Items[0].ID {
				t.Fatalf("cut %d: record %d = seq %d id %q, want intact record %d",
					cut, i, r.Seq, r.Batch[0].Upsert.Items[0].ID, i+1)
			}
		}
		// A cut exactly at the frame boundary is indistinguishable from a
		// clean shutdown after 4 records; anywhere inside the frame is a
		// torn tail.
		if wantTorn := cut != lastStart; rec.TornTail != wantTorn {
			t.Fatalf("cut %d: TornTail = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		// The truncated store must keep accepting appends, and a second
		// recovery must see the new record on top of the survivors.
		seq, err := st.Append(tornRecord(records))
		if err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if seq != records {
			t.Fatalf("cut %d: append after recovery got seq %d, want %d", cut, seq, records)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		st2, rec2, err := Open(dir, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if len(rec2.Tail) != records || rec2.TornTail {
			t.Fatalf("cut %d: second recovery has %d records (torn=%v), want %d clean",
				cut, len(rec2.Tail), rec2.TornTail, records)
		}
		st2.Close()
	}
}
