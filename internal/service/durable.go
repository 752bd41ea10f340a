package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	datalink "repro"
	"repro/internal/store"
)

// Durable mode: a Service bound to a store.Store logs every mutation to
// a write-ahead log before applying it and periodically checkpoints the
// published state into a binary snapshot. All mutations flow through one
// choke point — commit — whether they arrive over HTTP, programmatically
// (LearnLinks) or from recovery replay, so the state a restarted process
// rebuilds is the state the dead one acknowledged.

// ErrNotDurable reports a durability operation on a service without a
// store.
var ErrNotDurable = errors.New("service: not running in durable mode")

// ErrCheckpointBusy reports a forced checkpoint while one is already in
// flight.
var ErrCheckpointBusy = errors.New("service: checkpoint already in progress")

// errPersist wraps WAL append failures so handlers can classify them as
// server-side (503) rather than client errors.
var errPersist = errors.New("service: persisting mutation")

// errDegraded marks mutations rejected because the store fail-stopped
// earlier: the service is in degraded read-only mode, still answering
// queries from the published bundle, and only a restart (which recovers
// from snapshot + WAL) leaves it. Distinct from errPersist — a degraded
// rejection is guaranteed to have left no trace in the WAL, while the
// append failure that *caused* degradation is ambiguous (the record may
// or may not have reached disk).
var errDegraded = errors.New("service: store is fail-stopped")

// Seed is the initial corpus for a durable service whose store holds no
// prior state. Nil graphs start empty; Training is learned at boot and
// captured by the baseline snapshot.
type Seed struct {
	External *datalink.Graph
	Local    *datalink.Graph
	Ontology *datalink.Ontology
	Training []datalink.Link
}

// Restore builds a durable service from a store's recovered state: load
// the newest snapshot, install the model it holds (only learn records in
// the tail learn again), replay the WAL tail through the same mutation
// path live requests use, and checkpoint. A store with no state boots
// from seed instead and writes the baseline snapshot that recovery of
// the *next* process starts from — WAL records only make sense relative
// to a base image, so the baseline must be durable before the first
// mutation is acknowledged.
func Restore(st *store.Store, rec *store.Recovery, seed *Seed, opts Options) (*Service, error) {
	if rec.Empty() {
		if seed == nil {
			seed = &Seed{}
		}
		s := New(seed.External, seed.Local, seed.Ontology, opts)
		s.st = st
		s.registerStoreMetrics(rec)
		if len(seed.Training) > 0 {
			s.mu.Lock()
			s.links = append([]datalink.Link(nil), seed.Training...)
			err := s.learnLocked(context.Background())
			if err == nil {
				s.publishLocked(context.Background())
			}
			s.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("service: learning seed model: %w", err)
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			return nil, fmt.Errorf("service: writing baseline snapshot: %w", err)
		}
		return s, nil
	}

	snap := rec.Snapshot
	if snap == nil {
		return nil, errors.New("service: store has WAL records but no base snapshot")
	}
	if snap.Meta.Learned && snap.Model == nil {
		return nil, fmt.Errorf("service: snapshot %d says a model was learned but has no model section "+
			"(it was written before checkpoints kept the model); refusing to serve it without rules", snap.Seq)
	}
	ol, err := datalink.OntologyFromGraph(snap.Ontology)
	if err != nil {
		return nil, fmt.Errorf("service: recovering ontology: %w", err)
	}
	if zeroLearner(opts.Learner) && snap.Meta.Learner != nil {
		// No learner configured by the caller: adopt the persisted one,
		// so every tail-replayed learn record (and every later learn)
		// learns as the dead process did instead of silently learning
		// with this process's defaults. Workers is a pure wall-time knob
		// — excluded from the persisted identity and from zeroLearner —
		// so the caller's setting survives adoption.
		workers := opts.Learner.Workers
		opts.Learner = learnerFromMeta(snap.Meta.Learner)
		opts.Learner.Workers = workers
	}
	if len(opts.DefaultLinker.Comparators) == 0 && snap.Meta.Linker != nil {
		// No linker configured by the caller: adopt the one persisted with
		// the snapshot, so recovered deployments keep answering default
		// link queries identically. A config that no longer resolves (a
		// measure renamed or removed) would silently change query behavior,
		// so it fails recovery instead.
		comps, err := compileComparators(snap.Meta.Linker.Comparators)
		if err != nil {
			return nil, fmt.Errorf("service: recovering persisted linker config: %w", err)
		}
		opts.DefaultLinker = datalink.LinkerConfig{
			Comparators: comps, Threshold: snap.Meta.Linker.Threshold, Workers: snap.Meta.Linker.Workers,
		}
	}
	s := New(snap.External, snap.Local, ol, opts)
	s.st = st
	s.registerStoreMetrics(rec)
	s.mu.Lock()
	s.links = snap.Links
	if snap.Model != nil {
		// The classifier splits query values with the config's splitter.
		snap.Model.Config = s.opts.Learner
		s.installLocked(snap.Model)
	}
	for _, r := range rec.Tail {
		// Replay through the live apply path. A failing learn record
		// failed identically before the crash (learning is deterministic
		// in the corpus and links), so the error is part of the history,
		// not a recovery problem.
		if _, err := s.applyLocked(context.Background(), r); err != nil && r.Op != store.OpLearn {
			s.mu.Unlock()
			return nil, fmt.Errorf("service: replaying WAL record %d: %w", r.Seq, err)
		}
	}
	s.publishLocked(context.Background())
	s.mu.Unlock()
	if len(rec.Tail) > 0 || rec.TornTail {
		// Fold the replayed tail into a fresh snapshot so the next boot
		// starts clean (and the rotated segments get pruned).
		if _, err := s.Checkpoint(); err != nil {
			return nil, fmt.Errorf("service: post-recovery checkpoint: %w", err)
		}
	}
	return s, nil
}

// Store returns the service's durability store, or nil in ephemeral
// mode.
func (s *Service) Store() *store.Store { return s.st }

// Close waits for any in-flight background checkpoint, then flushes and
// syncs the WAL and releases the store. Safe on an ephemeral service and
// idempotent. Mutations racing Close may still commit (they fail once
// the store is closed), but no new background checkpoint can start
// after Close begins waiting — the closing flag and the WaitGroup Add
// are both guarded by the writer mutex.
func (s *Service) Close() error {
	if s.st == nil {
		return nil
	}
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.ckptWG.Wait()
	return s.st.Close()
}

// applyResult carries the side effects handlers report back to clients.
type applyResult struct {
	version  uint64 // mutated graph's version afterwards
	upserted int
	removed  int
	purged   int
	links    int
	rules    int
	segments int
}

// commit is the single logged-mutation choke point: append the record
// to the WAL (durable mode), apply it to the live state, publish a new
// immutable query view, and trigger an automatic checkpoint when one is
// due. A WAL append failure aborts the mutation before any state
// changes; an apply failure (only learning can fail) leaves the previous
// state published, which replay reproduces exactly.
func (s *Service) commit(ctx context.Context, rec *store.Record) (applyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkDegradedLocked(); err != nil {
		// The store fail-stopped earlier: reject before touching the WAL
		// or building any state, so degraded-mode mutations are cheap,
		// guaranteed-absent failures while reads keep serving.
		return applyResult{}, err
	}
	if s.st != nil {
		if _, err := s.st.Append(rec); err != nil {
			return applyResult{}, fmt.Errorf("%w: %v", errPersist, err)
		}
	}
	res, err := s.applyLocked(ctx, rec)
	if err != nil {
		return res, err
	}
	s.publishLocked(ctx)
	s.maybeCheckpointLocked()
	return res, nil
}

// applyLocked dispatches one mutation record to its applier. It is the
// shared path of live commits and recovery replay; callers hold the
// write lock. Every item write is a batch, whether it carries one item
// or a bulk chunk, so a replayed batch takes exactly the code path of a
// live one.
func (s *Service) applyLocked(ctx context.Context, rec *store.Record) (applyResult, error) {
	switch rec.Op {
	case store.OpBatch:
		return s.applyEntriesLocked(rec.Batch), nil
	case store.OpLearn:
		return s.applyLearnLocked(ctx, rec.Learn)
	default:
		return applyResult{}, fmt.Errorf("service: unknown mutation op %d", rec.Op)
	}
}

// applyEntriesLocked applies an ordered slice of upsert/remove entries:
// graph mutations and training-link purges happen per entry in order,
// then the instance index and value index are patched for ALL local
// entries in one pipeline call (external items need no patch), and the
// caller publishes the COW bundle once. That collapsing is what makes a
// 10k-item batch cost one publish instead of 10k — and it is order-safe
// because index upserts re-read the (final) graph state and the last
// patch for an item always agrees with the graphs.
func (s *Service) applyEntriesLocked(entries []store.BatchEntry) applyResult {
	var res applyResult
	var patches []datalink.Patch
	for _, e := range entries {
		var side store.Side
		var terms []datalink.Term
		switch {
		case e.Upsert != nil:
			op := e.Upsert
			side = op.Side
			terms = make([]datalink.Term, len(op.Items))
			for i, it := range op.Items {
				terms[i] = datalink.NewIRI(it.ID)
				s.replaceItemLocked(side, terms[i], it.Props, it.Classes)
			}
			res.upserted += len(op.Items)
		case e.Remove != nil:
			op := e.Remove
			side = op.Side
			g := s.graphLocked(side)
			terms = make([]datalink.Term, 0, len(op.IDs))
			gone := make(map[datalink.Term]struct{}, len(op.IDs))
			for _, id := range op.IDs {
				item := datalink.NewIRI(id)
				terms = append(terms, item)
				gone[item] = struct{}{}
				trs := g.Find(item, datalink.Term{}, datalink.Term{})
				for _, tr := range trs {
					g.Remove(tr)
				}
				if len(trs) > 0 {
					res.removed++
				}
			}
			res.purged += s.purgeLinksLocked(side, gone)
		}
		if side == store.Local {
			patches = append(patches, datalink.Patch{Side: datalink.LocalSide, Remove: e.Remove != nil, Items: terms})
		}
		res.version = s.graphLocked(side).Version()
	}
	if s.pipe != nil {
		s.pipe.ApplyPatches(patches)
	}
	return res
}

// applyLearnLocked extends (or replaces) the training links and
// relearns. On failure the previous links and model stay in place — the
// same record replayed after a crash fails the same way, so live and
// recovered state agree either way.
func (s *Service) applyLearnLocked(ctx context.Context, op *store.LearnOp) (applyResult, error) {
	prev := s.links
	if op.Replace {
		s.links = op.Links
	} else {
		s.links = append(append([]datalink.Link(nil), s.links...), op.Links...)
	}
	if err := s.learnLocked(ctx); err != nil {
		s.links = prev
		return applyResult{}, err
	}
	return applyResult{
		links:    len(s.links),
		rules:    s.pipe.Model.Rules.Len(),
		segments: s.pipe.Model.Stats.DistinctSegments,
	}, nil
}

// graphLocked returns the live graph of one side; callers hold the
// write lock.
func (s *Service) graphLocked(side store.Side) *datalink.Graph {
	if side == store.Local {
		return s.sl
	}
	return s.se
}

// Checkpoint forces a snapshot of the current state: rotate the WAL at
// the current sequence, capture the published bundle (O(1) frozen graph
// views), and write the snapshot file without holding the writer lock.
// Returns the durability stats after the checkpoint completes.
func (s *Service) Checkpoint() (store.Stats, error) {
	if s.st == nil {
		return store.Stats{}, ErrNotDurable
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return store.Stats{}, ErrCheckpointBusy
	}
	defer s.ckptBusy.Store(false)
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return store.Stats{}, fmt.Errorf("service: closing")
	}
	// Track the synchronous write like a background one, so Close cannot
	// release the store while this checkpoint is mid-write.
	s.ckptWG.Add(1)
	defer s.ckptWG.Done()
	snap, err := s.checkpointDataLocked()
	s.mu.Unlock()
	if err != nil {
		// Arm the store's failed-checkpoint holdoff on the capture path
		// too (WriteCheckpoint failures arm it internally), so a forced
		// checkpoint that dies early backs off exactly like an automatic
		// one instead of making SnapshotDue retry every record.
		s.st.Holdoff()
		s.ckptErr.Store(err.Error())
		return store.Stats{}, err
	}
	if err := s.st.WriteCheckpoint(snap); err != nil {
		s.ckptErr.Store(err.Error())
		return store.Stats{}, err
	}
	s.ckptErr.Store("")
	return s.st.Stats(), nil
}

// maybeCheckpointLocked starts a background checkpoint when enough WAL
// records accumulated. The boundary rotation and state capture happen
// here, under the writer lock the caller already holds (both are cheap);
// the expensive encode+write runs in a goroutine so writers are never
// blocked on disk. At most one checkpoint runs at a time.
func (s *Service) maybeCheckpointLocked() {
	if s.st == nil || s.closing || !s.st.SnapshotDue() || !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	snap, err := s.checkpointDataLocked()
	if err != nil {
		// Same holdoff as the forced path: without it a failing rotation
		// would be retried on the very next record, over and over.
		s.st.Holdoff()
		s.ckptErr.Store(err.Error())
		s.ckptBusy.Store(false)
		return
	}
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptBusy.Store(false)
		if err := s.st.WriteCheckpoint(snap); err != nil {
			s.ckptErr.Store(err.Error())
			return
		}
		s.ckptErr.Store("")
	}()
}

// checkpointDataLocked rotates the WAL and captures everything the
// snapshot needs from the live state: copy-on-write graph views (O(1)),
// the ontology re-serialized to triples, the ordered training links
// (every writer replaces the slice, none changes it in place), the
// served model (never written once installed) and the metadata. Callers
// hold the write lock, so the rotation boundary and the captured state
// agree exactly.
func (s *Service) checkpointDataLocked() (*store.Snapshot, error) {
	boundary, err := s.st.Rotate()
	if err != nil {
		return nil, err
	}
	snap := &store.Snapshot{
		Seq:      boundary,
		External: s.se.Snapshot(),
		Local:    s.sl.Snapshot(),
		Ontology: s.ol.ToGraph(),
		Links:    s.links,
		Meta: store.Meta{
			Learned: s.pipe != nil,
			Linker:  linkerToMeta(s.opts.DefaultLinker),
			Learner: learnerToMeta(s.opts.Learner),
		},
	}
	if s.pipe != nil {
		snap.Model = s.pipe.Model
	}
	return snap, nil
}

// lastCheckpointError returns the most recent checkpoint failure, or ""
// when the last one succeeded (or none ran).
func (s *Service) lastCheckpointError() string {
	if v, ok := s.ckptErr.Load().(string); ok {
		return v
	}
	return ""
}

// linkerToMeta captures the default linker config by measure name, or
// nil when recovery could not compile it back to the same comparators:
// a custom Func measure, or a comparator that a link request could not
// state either.
func linkerToMeta(cfg datalink.LinkerConfig) *store.LinkerMeta {
	if len(cfg.Comparators) == 0 {
		return nil
	}
	m := &store.LinkerMeta{Threshold: cfg.Threshold, Workers: cfg.Workers}
	for _, c := range cfg.Comparators {
		name, ok := measureName(c.Measure)
		if !ok {
			return nil
		}
		m.Comparators = append(m.Comparators, store.ComparatorMeta{
			ExternalProperty: c.ExternalProperty.Value,
			LocalProperty:    c.LocalProperty.Value,
			Measure:          name,
			Weight:           c.Weight,
		})
	}
	if comps, err := compileComparators(m.Comparators); err != nil || !reflect.DeepEqual(comps, cfg.Comparators) {
		return nil
	}
	return m
}

// zeroLearner reports whether the caller left the learner config at its
// zero value (which means "adopt the persisted one" on recovery).
// Workers is deliberately ignored: it only changes wall time, never the
// learned model, so setting it alone must not block adoption.
func zeroLearner(cfg datalink.LearnerConfig) bool {
	return len(cfg.Properties) == 0 && cfg.Splitter == nil && cfg.SupportThreshold == 0
}

// learnerToMeta captures the learner config in wire form, or nil when a
// custom splitter function makes it inexpressible (like a custom Func
// measure does for the linker).
func learnerToMeta(cfg datalink.LearnerConfig) *store.LearnerMeta {
	if cfg.Splitter != nil {
		return nil
	}
	m := &store.LearnerMeta{SupportThreshold: cfg.SupportThreshold}
	for _, p := range cfg.Properties {
		m.Properties = append(m.Properties, p.Value)
	}
	return m
}

// learnerFromMeta rebuilds a learner config from persisted metadata.
func learnerFromMeta(m *store.LearnerMeta) datalink.LearnerConfig {
	cfg := datalink.LearnerConfig{SupportThreshold: m.SupportThreshold}
	for _, p := range m.Properties {
		cfg.Properties = append(cfg.Properties, datalink.NewIRI(p))
	}
	return cfg
}

// measureName reverse-resolves a measure value to its wire name.
func measureName(m datalink.Measure) (string, bool) {
	for name, v := range measures {
		if reflect.DeepEqual(m, v) {
			return name, true
		}
	}
	return "", false
}
