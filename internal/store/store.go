package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncMode selects when WAL appends reach stable storage.
type FsyncMode int

const (
	// FsyncInterval flushes on every append and fsyncs on a background
	// timer every fsyncPeriod: bounded data loss at near-"never" append
	// latency. The default.
	FsyncInterval FsyncMode = iota
	// FsyncNever leaves syncing to the OS page cache (and to rotation,
	// checkpoint and close, which always sync). Fastest; a power loss can
	// drop the unsynced tail — which recovery then cleanly ignores.
	FsyncNever
	// FsyncAlways fsyncs every append before it is acknowledged. Zero
	// loss window; pays one disk round trip per mutation.
	FsyncAlways
)

// String returns the flag spelling of the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return FsyncNever, nil
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync mode %q (want never, interval or always)", s)
	}
}

// fsyncPeriod is the background timer period of FsyncInterval.
const fsyncPeriod = 100 * time.Millisecond

// Options configures a Store.
type Options struct {
	// Fsync is the WAL durability policy.
	Fsync FsyncMode
	// SnapshotEvery is how many WAL records may accumulate before
	// SnapshotDue reports true; 0 means 1024, negative disables automatic
	// checkpoints (explicit ones still work).
	SnapshotEvery int
	// KeepSnapshots is how many snapshot files to retain; 0 means 2.
	KeepSnapshots int
	// FS is the filesystem behind every write the store performs; nil
	// means the real one (OSFS). Fault-injection tests substitute
	// internal/faultfs here.
	FS FS
	// Metrics receives hot-path observations (appends, fsyncs,
	// checkpoints); nil disables them at zero cost.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{} // all-nil instruments: observations no-op
	}
	return o
}

// segment is one WAL file and the sequence range it holds.
type segment struct {
	path  string
	start uint64 // first sequence number in the file
	end   uint64 // last sequence number (inclusive); only for retained segments
	bytes int64
}

// Store owns one durability directory: the current WAL segment, the
// retained (pre-checkpoint) segments, and the snapshot files. All
// methods are safe for concurrent use; Append calls are additionally
// expected to already be serialized by the service's writer mutex, which
// is what makes the sequence order on disk match the apply order.
type Store struct {
	dir  string
	opts Options
	fs   FS

	mu          sync.Mutex
	wal         *walWriter
	walStart    uint64    // first seq the current segment can hold
	seq         uint64    // last assigned sequence number
	retained    []segment // closed segments awaiting checkpoint pruning
	snapSeq     uint64    // newest durable snapshot's sequence
	snapHoldoff uint64    // boundary of the last FAILED checkpoint write
	snapTime    time.Time // when it was written
	snapCount   int       // snapshot files on disk
	checkpoints uint64    // checkpoints completed this process
	closed      bool
	dirty       bool  // appends since last fsync (interval mode)
	failed      error // sticky WAL write/sync failure; store is read-only

	stopFsync chan struct{}
	fsyncDone chan struct{}
}

// Recovery is the state Open reconstructed from disk.
type Recovery struct {
	// Snapshot is the newest valid snapshot, or nil for a fresh store.
	Snapshot *Snapshot
	// Tail holds the WAL records after Snapshot.Seq, in order. The
	// service replays them on top of the snapshot.
	Tail []*Record
	// TornTail reports that the newest segment ended in a corrupt or
	// torn record, which was ignored (the expected shape of a crash
	// mid-append).
	TornTail bool
	// SkippedSnapshots counts snapshot files that failed validation and
	// were passed over in favor of an older one.
	SkippedSnapshots int
}

// Empty reports whether the store held no usable state at all.
func (r *Recovery) Empty() bool {
	return r.Snapshot == nil && len(r.Tail) == 0
}

// Open opens (or initializes) a durability directory and recovers its
// state: newest valid snapshot, then the WAL tail after it. The WAL is
// then rotated — recovery never appends to a segment written by an
// earlier process — and old files are pruned at the next checkpoint.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating directory: %w", err)
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovery{}
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := readSnapshotFile(snaps[i].path)
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		rec.Snapshot = s
		break
	}
	if rec.Snapshot == nil && rec.SkippedSnapshots > 0 {
		// Snapshot files exist but none validates: the store held state
		// that cannot be read back. Treating this as a fresh store would
		// silently reseed over acknowledged data, so refuse.
		return nil, nil, fmt.Errorf(
			"store: %d snapshot file(s) present but none validates; refusing to treat %s as empty", rec.SkippedSnapshots, dir)
	}
	var snapSeq uint64
	var snapTime time.Time
	if rec.Snapshot != nil {
		snapSeq = rec.Snapshot.Seq
		if fi, err := os.Stat(snapshotPath(dir, snapSeq)); err == nil {
			snapTime = fi.ModTime()
		}
	}

	// The WAL must join the snapshot without a hole: if the oldest
	// segment starts past snapSeq+1, records between the snapshot and
	// the log were pruned against a newer snapshot that no longer
	// validates — acknowledged mutations would silently vanish.
	if len(segs) > 0 && segs[0].start > snapSeq+1 {
		return nil, nil, fmt.Errorf(
			"store: wal starts at sequence %d but the newest usable snapshot covers %d: the records in between are lost",
			segs[0].start, snapSeq)
	}

	// Replay segments in order, keeping records the snapshot does not
	// cover. Only the newest segment may end torn; earlier corruption
	// would silently lose acknowledged records, so it is an error.
	// Records are assigned densely, so every kept record must follow its
	// predecessor (or the snapshot boundary) exactly — a gap means a
	// pruned or missing file and is unrecoverable.
	lastSeq := snapSeq
	segRecords := make([]int, len(segs))
	tornGood := int64(-1)
	for i, sg := range segs {
		idx := i
		clean, good, err := replayWALSegment(sg.path, func(r *Record) error {
			segRecords[idx]++
			if r.Seq <= snapSeq {
				return nil
			}
			if r.Seq != lastSeq+1 {
				return fmt.Errorf("store: %s: sequence gap: %d after %d", sg.path, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
			rec.Tail = append(rec.Tail, r)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if !clean {
			if idx != len(segs)-1 {
				return nil, nil, fmt.Errorf("store: %s: corrupt record in the middle of the log", sg.path)
			}
			rec.TornTail = true
			tornGood = good
		}
	}

	st := &Store{
		dir:       dir,
		opts:      opts,
		fs:        opts.FS,
		seq:       lastSeq,
		snapSeq:   snapSeq,
		snapTime:  snapTime,
		snapCount: len(snaps),
	}
	// Seal the recovered segments and start a fresh one: their end
	// sequences are now known, and new appends never share a file with a
	// previous process's tail. Segments that held no intact records at
	// all (the empty file a mutation-free run leaves behind, or a lone
	// torn tail) are deleted here so the fresh segment's name is free.
	for i, sg := range segs {
		if segRecords[i] == 0 {
			_ = opts.FS.Remove(sg.path)
			continue
		}
		if i == len(segs)-1 && tornGood >= 0 {
			// The tolerated torn tail must not survive on disk: this
			// process may die again before its post-recovery checkpoint
			// prunes the segment, and the next Open would then find the
			// garbage in the *middle* of the log and refuse to start.
			if err := truncateWALSegment(opts.FS, sg.path, tornGood); err != nil {
				return nil, nil, err
			}
			sg.bytes = tornGood
		}
		end := lastSeq
		if i+1 < len(segs) {
			end = segs[i+1].start - 1
		}
		st.retained = append(st.retained, segment{path: sg.path, start: sg.start, end: end, bytes: sg.bytes})
	}
	st.walStart = lastSeq + 1
	w, err := createWALSegment(opts.FS, filepath.Join(dir, walName(st.walStart)))
	if err != nil {
		return nil, nil, err
	}
	st.wal = w
	// Drop stray temp files from interrupted snapshot writes.
	if tmp, err := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); err == nil {
		for _, p := range tmp {
			_ = opts.FS.Remove(p)
		}
	}
	if opts.Fsync == FsyncInterval {
		st.stopFsync = make(chan struct{})
		st.fsyncDone = make(chan struct{})
		go st.fsyncLoop()
	}
	return st, rec, nil
}

// walName names the segment whose first record is seq.
func walName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.log", seq)
}

// scanDir lists snapshot files and WAL segments sorted by sequence.
func scanDir(dir string) (snaps, segs []segment, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		var kind *[]segment
		var hexPart string
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			kind, hexPart = &snaps, strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			kind, hexPart = &segs, strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		default:
			continue
		}
		seq, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		sg := segment{path: filepath.Join(dir, name), start: seq}
		if fi, err := e.Info(); err == nil {
			sg.bytes = fi.Size()
		}
		*kind = append(*kind, sg)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].start < snaps[j].start })
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return snaps, segs, nil
}

// Append assigns the next sequence number to rec, frames it and appends
// it to the current WAL segment under the configured fsync policy. The
// record reaches the OS page cache before Append returns (every mode
// flushes); with FsyncAlways it is durable. A write or sync failure is
// ambiguous — the frame may or may not be on disk — so it poisons the
// store: the sequence slot stays consumed (never reused, which would
// corrupt the log with duplicate numbers) and every later Append fails
// fast until a restart recovers whatever actually landed.
func (s *Store) Append(rec *Record) (uint64, error) {
	body, err := rec.encodeBody()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: append on closed store")
	}
	if s.failed != nil {
		return 0, fmt.Errorf("store: write-ahead log failed earlier, store is read-only until restart: %w", s.failed)
	}
	seq := s.seq + 1
	payload := make([]byte, 0, len(body)+binary.MaxVarintLen64)
	payload = appendUvarint(payload, seq)
	payload = append(payload, body...)
	if len(payload) > maxWALRecord {
		// The replayer rejects frames over the cap as corrupt, so
		// acknowledging one here would write a record recovery cannot
		// read back. A clean rejection: nothing was written, no sequence
		// slot consumed, the store stays usable.
		return 0, fmt.Errorf("store: record of %d bytes exceeds the %d-byte wal frame cap", len(payload), maxWALRecord)
	}
	m := s.opts.Metrics
	if err := s.wal.append(payload); err != nil {
		s.failed = err
		m.AppendFailuresTotal.Inc()
		return 0, err
	}
	// The frame occupies its sequence slot from here on, even if the
	// flush below fails.
	s.seq = seq
	rec.Seq = seq
	if err := s.wal.flush(); err != nil {
		s.failed = err
		m.AppendFailuresTotal.Inc()
		return 0, err
	}
	switch s.opts.Fsync {
	case FsyncAlways:
		if err := s.syncWALLocked(); err != nil {
			s.failed = err
			m.AppendFailuresTotal.Inc()
			return 0, err
		}
	case FsyncInterval:
		s.dirty = true
	}
	m.AppendsTotal.Inc()
	m.AppendBytesTotal.Add(uint64(8 + len(payload))) // frame header + payload
	return seq, nil
}

// syncWALLocked fsyncs the current segment, timing it into the fsync
// histogram. Callers hold s.mu.
func (s *Store) syncWALLocked() error {
	t0 := time.Now()
	if err := s.wal.sync(); err != nil {
		return err
	}
	s.opts.Metrics.FsyncSeconds.ObserveSince(t0)
	return nil
}

// SnapshotDue reports whether enough records accumulated since the last
// checkpoint boundary to warrant an automatic one. After a failed
// checkpoint write the clock restarts at the failed boundary, so a
// persistently failing disk sees one retry per SnapshotEvery records
// instead of a rotation plus a full snapshot encode on every mutation.
func (s *Store) SnapshotDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.SnapshotEvery < 0 {
		return false
	}
	base := s.snapSeq
	if s.snapHoldoff > base {
		base = s.snapHoldoff
	}
	return s.seq >= base+uint64(s.opts.SnapshotEvery) && s.seq >= s.walStart
}

// Rotate closes the current WAL segment (synced) and opens a fresh one,
// returning the last sequence number of the closed log — the exact
// boundary a snapshot taken now must cover. Call it under the same
// serialization as Append so no record lands between the boundary and
// the state capture.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: rotate on closed store")
	}
	if s.failed != nil {
		return 0, fmt.Errorf("store: write-ahead log failed earlier: %w", s.failed)
	}
	boundary := s.seq
	if s.seq+1 == s.walStart {
		// Current segment is empty; nothing to rotate.
		return boundary, nil
	}
	old := s.wal
	if err := old.close(); err != nil {
		// close() syncs first, so a failure here is an ambiguous sync:
		// acknowledged records in this segment may not be durable under
		// the configured policy, and the file is closed either way.
		// Fail-stop rather than let the next Append discover it.
		s.failed = err
		return 0, err
	}
	s.retained = append(s.retained, segment{path: old.path, start: s.walStart, end: boundary, bytes: old.bytes})
	s.walStart = s.seq + 1
	w, err := createWALSegment(s.fs, filepath.Join(s.dir, walName(s.walStart)))
	if err != nil {
		// The old segment is already closed; without a fresh one there is
		// nowhere to append. Fail-stop like a write failure, instead of
		// letting the next Append consume a sequence slot buffering into
		// the closed file.
		s.failed = err
		return 0, err
	}
	s.wal = w
	s.dirty = false
	return boundary, nil
}

// WriteCheckpoint writes snap to disk, records it as the newest
// checkpoint, and prunes the WAL segments and snapshot files it
// supersedes. The expensive encoding runs without any Store lock; only
// the bookkeeping at the end takes it. Callers obtain snap.Seq from
// Rotate and capture the state while still holding their writer lock.
func (s *Store) WriteCheckpoint(snap *Snapshot) error {
	m := s.opts.Metrics
	t0 := time.Now()
	_, size, err := writeSnapshotFile(s.fs, s.dir, snap)
	if err != nil {
		m.CheckpointFailuresTotal.Inc()
		s.mu.Lock()
		if snap.Seq > s.snapHoldoff {
			s.snapHoldoff = snap.Seq
		}
		s.mu.Unlock()
		return err
	}
	m.CheckpointSeconds.ObserveSince(t0)
	m.CheckpointLastBytes.Set(size)
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Seq > s.snapSeq {
		s.snapSeq = snap.Seq
		s.snapTime = time.Now()
		s.snapHoldoff = 0 // a successful checkpoint ends any holdoff
	}
	s.snapCount++
	s.checkpoints++
	s.pruneLocked()
	return nil
}

// pruneLocked deletes retained WAL segments fully covered by the newest
// snapshot and snapshot files beyond the retention count.
func (s *Store) pruneLocked() {
	kept := s.retained[:0]
	for _, sg := range s.retained {
		if sg.end <= s.snapSeq {
			_ = s.fs.Remove(sg.path)
			continue
		}
		kept = append(kept, sg)
	}
	s.retained = kept

	snaps, _, err := scanDir(s.dir)
	if err != nil {
		return
	}
	s.snapCount = len(snaps)
	for len(snaps) > s.opts.KeepSnapshots {
		_ = s.fs.Remove(snaps[0].path)
		snaps = snaps[1:]
		s.snapCount--
	}
}

// Stats is a point-in-time durability summary, surfaced by /v1/status.
type Stats struct {
	// Seq is the last assigned WAL sequence number.
	Seq uint64 `json:"seq"`
	// WALRecords counts records not yet covered by a snapshot.
	WALRecords uint64 `json:"wal_records"`
	// WALBytes is the on-disk size of all live WAL segments.
	WALBytes int64 `json:"wal_bytes"`
	// LastSnapshotSeq is the newest snapshot's covered sequence.
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`
	// LastSnapshotUnix is when it was written (0 = never).
	LastSnapshotUnix int64 `json:"last_snapshot_unix"`
	// Snapshots counts snapshot files on disk.
	Snapshots int `json:"snapshots"`
	// Checkpoints counts checkpoints completed by this process.
	Checkpoints uint64 `json:"checkpoints"`
	// Fsync echoes the active fsync policy.
	Fsync string `json:"fsync"`
}

// Stats returns the current durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Seq:             s.seq,
		WALRecords:      s.seq - s.snapSeq,
		WALBytes:        s.wal.bytes,
		LastSnapshotSeq: s.snapSeq,
		Snapshots:       s.snapCount,
		Checkpoints:     s.checkpoints,
		Fsync:           s.opts.Fsync.String(),
	}
	if !s.snapTime.IsZero() {
		st.LastSnapshotUnix = s.snapTime.Unix()
	}
	for _, sg := range s.retained {
		st.WALBytes += sg.bytes
	}
	return st
}

// Dir returns the durability directory.
func (s *Store) Dir() string { return s.dir }

// Failed returns the sticky WAL failure that fail-stopped the store, or
// nil while it is healthy. A failed store rejects every further Append
// and Rotate until a restart recovers whatever actually landed on disk;
// the service layer surfaces this as degraded read-only mode.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Holdoff arms the failed-checkpoint holdoff at the current sequence:
// SnapshotDue stays false until SnapshotEvery more records accumulate.
// WriteCheckpoint arms it itself when the snapshot write fails; the
// service calls this for checkpoint attempts that die earlier (rotation
// or state capture), so forced and automatic checkpoints back off
// identically instead of retrying a full snapshot encode per mutation.
func (s *Store) Holdoff() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq > s.snapHoldoff {
		s.snapHoldoff = s.seq
	}
}

// Sync flushes and fsyncs the current WAL segment. Like Append, a sync
// failure is ambiguous and poisons the store.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.syncWALLocked(); err != nil {
		s.failed = err
		return err
	}
	s.dirty = false
	return nil
}

// fsyncLoop is the FsyncInterval background syncer. A failed background
// sync poisons the store exactly like a failed foreground one — the
// loss-window contract is void once the disk stops accepting fsyncs, so
// acknowledging further writes would be lying.
func (s *Store) fsyncLoop() {
	defer close(s.fsyncDone)
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stopFsync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil && s.dirty {
				if err := s.syncWALLocked(); err != nil {
					s.failed = err
				} else {
					s.dirty = false
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close flushes and fsyncs the WAL and releases the store. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.stopFsync
	err := s.wal.close()
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.fsyncDone
	}
	return err
}
