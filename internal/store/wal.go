package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// walMagic heads every WAL segment file.
const walMagic = "LNKWAL1\n"

// maxWALRecord caps a single record frame so a corrupt length prefix
// cannot ask the replayer to allocate gigabytes. Generous: a record is
// one HTTP mutation, itself capped by the service's request body limit.
const maxWALRecord = 64 << 20

// castagnoli is the CRC polynomial used for all framing in this package
// (hardware-accelerated on common platforms).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends CRC-framed records to one segment file. Writes are
// buffered; flush pushes them to the OS, sync additionally fsyncs.
// Not safe for concurrent use — the Store serializes access.
type walWriter struct {
	f       File
	bw      *bufio.Writer
	path    string
	bytes   int64 // bytes written including header
	records int
}

// createWALSegment creates path exclusively and writes the header. A
// pre-existing file is an error: segment names embed the start sequence,
// so a collision means the store directory is corrupt or shared.
func createWALSegment(fs FS, path string) (*walWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: creating wal segment: %w", err)
	}
	w := &walWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), path: path}
	if _, err := w.bw.WriteString(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: writing wal header: %w", err)
	}
	// The header (and the new directory entry) go to disk immediately: a
	// crash must never leave an empty segment file that a later Open
	// would refuse to read past, nor lose the segment entirely.
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	_ = fs.SyncDir(filepath.Dir(path))
	w.bytes = int64(len(walMagic))
	return w, nil
}

// append frames and writes one record payload: [len u32][crc u32][payload].
func (w *walWriter) append(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	w.bytes += int64(8 + len(payload))
	w.records++
	return nil
}

// flush pushes buffered records to the OS.
func (w *walWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing wal: %w", err)
	}
	return nil
}

// sync flushes and fsyncs the segment.
func (w *walWriter) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing wal: %w", err)
	}
	return nil
}

// close syncs and closes the segment file.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing wal: %w", err)
	}
	return nil
}

// errCorruptTail marks a frame that cannot be trusted: torn write,
// truncated header, CRC mismatch or an implausible length (zero or over
// the cap).
var errCorruptTail = errors.New("store: corrupt wal record")

// replayWALSegment streams the records of one segment file to fn in
// order. It returns clean=false when the segment ends in a corrupt or
// torn record (everything before it was still delivered); good is the
// byte offset of the end of the last intact frame, so a tolerated torn
// tail can be truncated away. Any other failure — unreadable file, bad
// header, an intact record that does not decode, fn error — is returned
// as err.
func replayWALSegment(path string, fn func(rec *Record) error) (clean bool, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("store: opening wal segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// A truncated (or empty) header is a torn write, the same
			// class as a torn trailing record: tolerable in the newest
			// segment, fatal in the middle of the log (the caller
			// decides which this is).
			return false, 0, nil
		}
		return false, 0, fmt.Errorf("store: reading wal header of %s: %w", path, err)
	}
	if string(magic[:]) != walMagic {
		return false, 0, fmt.Errorf("store: %s: bad wal magic %q", path, magic[:])
	}
	good = int64(len(walMagic))
	for {
		rec, frame, err := readWALRecord(br)
		if err == io.EOF {
			return true, good, nil
		}
		if errors.Is(err, errCorruptTail) {
			return false, good, nil
		}
		if err != nil {
			return false, good, fmt.Errorf("store: %s at byte %d: %w", path, good, err)
		}
		if err := fn(rec); err != nil {
			return false, good, err
		}
		good += frame
	}
}

// truncateWALSegment cuts a tolerated torn tail off a segment at the
// last intact frame boundary, so a later Open that still sees this file
// (the process died again before a checkpoint pruned it) replays it as
// a clean mid-log segment instead of refusing to start.
func truncateWALSegment(fs FS, path string, size int64) error {
	f, err := fs.OpenWrite(path)
	if err != nil {
		return fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	return nil
}

// readWALRecord reads one frame, returning the record and the frame's
// on-disk size. io.EOF means a clean end exactly at a frame boundary;
// errCorruptTail wraps every way a trailing frame can be broken. A frame
// whose length and CRC check out but whose record does not decode is
// another error: it is what a writer meant to log (a newer build's
// record, after a downgrade), not a torn write, and cutting it off as a
// tail would drop it and every acknowledged record after it.
func readWALRecord(br *bufio.Reader) (*Record, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		// A partial header is a torn write.
		return nil, 0, fmt.Errorf("%w: truncated frame header", errCorruptTail)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxWALRecord {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds cap", errCorruptTail, n)
	}
	// No writer emits an empty frame: every payload starts with its
	// sequence number. An all-zero header, which is what a crash leaves
	// when the file's new size reached disk before its data, would pass
	// the CRC check (the CRC of no bytes is 0), so it is caught here.
	if n == 0 {
		return nil, 0, fmt.Errorf("%w: empty frame", errCorruptTail)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated frame payload", errCorruptTail)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch (%08x != %08x)", errCorruptTail, got, want)
	}
	seq, sn := binary.Uvarint(payload)
	if sn <= 0 {
		return nil, 0, errors.New("record with an intact frame has no readable sequence number")
	}
	rec := &Record{Seq: seq}
	if err := rec.decodeBody(payload[sn:]); err != nil {
		return nil, 0, fmt.Errorf("record %d has an intact frame but does not decode: %w", seq, err)
	}
	return rec, int64(8 + n), nil
}
