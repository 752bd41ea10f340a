package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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

// TestUndecodableRecordFailsOpen: a record whose frame and CRC are
// intact but which this build cannot decode (an op it does not know, as
// a newer build's record would be after a downgrade) is not a torn
// tail. Open fails and names it, instead of truncating the segment
// there and dropping it with every record after it, and the segment
// keeps every byte.
func TestUndecodableRecordFailsOpen(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(payload []byte)
	}{
		{"unknown op", "record 2 ", func(payload []byte) {
			_, sn := binary.Uvarint(payload)
			payload[sn] = 9
		}},
		{"unreadable sequence number", "no readable sequence number", func(payload []byte) {
			for i := 0; i < binary.MaxVarintLen64; i++ {
				payload[i] = 0xff
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Fsync: FsyncAlways, SnapshotEvery: -1}
			st, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 3; i++ {
				if _, err := st.Append(tornRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, walName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			off := walFrameOffsets(t, raw)[1]
			n := binary.LittleEndian.Uint32(raw[off:])
			payload := raw[off+8 : off+8+int64(n)]
			tc.damage(payload)
			binary.LittleEndian.PutUint32(raw[off+4:], crc32.Checksum(payload, castagnoli))
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			st, rec, err := Open(dir, opts)
			if err == nil {
				st.Close()
				t.Fatalf("Open accepted the log (%d records, torn tail %v)", len(rec.Tail), rec.TornTail)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), walName(1)) {
				t.Errorf("Open failed with %q, want an error naming the segment and %q", err, tc.want)
			}
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, raw) {
				t.Errorf("the segment changed from %d to %d bytes", len(raw), len(after))
			}
		})
	}
}

// TestZeroedTailIsTorn: a crash under fsync never or interval can leave
// the segment's new size on disk without its data, so the tail after
// the last good frame reads as zeros. Eight or more zero bytes parse as
// a frame header of length 0 and CRC 0, and the CRC of no bytes is 0;
// that is still a torn tail, not an undecodable record. Open recovers
// every record, reports the tail torn and truncates the segment at the
// last good frame.
func TestZeroedTailIsTorn(t *testing.T) {
	for _, zeros := range []int{1, 8, 9, 64} {
		t.Run(fmt.Sprintf("%d zero bytes", zeros), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Fsync: FsyncAlways, SnapshotEvery: -1}
			st, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			const records = 3
			for i := uint64(1); i <= records; i++ {
				if _, err := st.Append(tornRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, walName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, append(raw, make([]byte, zeros)...), 0o644); err != nil {
				t.Fatal(err)
			}

			st, rec, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("recovery refused: %v", err)
			}
			defer st.Close()
			if len(rec.Tail) != records || !rec.TornTail {
				t.Fatalf("recovered %d records (torn=%v), want %d with a torn tail", len(rec.Tail), rec.TornTail, records)
			}
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, raw) {
				t.Errorf("segment is %d bytes after recovery, want it truncated to the last good frame at %d", len(after), len(raw))
			}
		})
	}
}
