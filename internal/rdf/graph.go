package rdf

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an in-memory RDF triple store with three full indexes
// (SPO, POS, OSP) so that every triple-pattern lookup touches only the
// matching slice of the data.
//
// Graph is not safe for concurrent mutation, but it supports cheap
// copy-on-write snapshots: Snapshot returns a frozen view that remains
// valid — and identical to the graph at snapshot time — while the live
// graph keeps mutating. Concurrent readers of a snapshot never race
// with the live graph's writers, which is what lets slow queries run
// entirely outside a service's write lock.
type Graph struct {
	spo cowIndex
	pos cowIndex
	osp cowIndex
	n   int
	// lazyPOS/lazyOSP are non-nil on bulk-loaded graphs (DecodeSnapshot)
	// whose secondary indexes have not materialized yet: the SPO index
	// is always built eagerly, while POS and OSP derive on first use
	// from the retained packed keys. Loading nil is the fast path on
	// every secondary-index read; the release store in materialize
	// orders the index write before the pointer clear, so concurrent
	// readers of a frozen bulk-loaded snapshot are safe. Mutations
	// materialize both first (writeToken), so live graphs never update
	// a deferred index.
	lazyPOS atomic.Pointer[bulkState]
	lazyOSP atomic.Pointer[bulkState]
	// ver counts successful mutations, letting callers that snapshot
	// derived state (e.g. the linkage value index) detect staleness
	// cheaply via Version.
	ver uint64
	// mut is the graph's current mutation token: a bucket may be written
	// in place only if it is owned by this token. Snapshot refreshes the
	// token, disowning every bucket at once, so the next mutation copies
	// what it touches instead of tearing the snapshot. A nil token marks
	// a frozen snapshot; mutating one panics.
	mut *mutToken
	// snap caches the last snapshot with the version it was taken at, so
	// repeated Snapshot calls on an unchanged graph return the same view
	// without disowning buckets again.
	snap    *Graph
	snapVer uint64
}

// mutToken is an ownership marker compared by pointer identity. It must
// not be zero-sized: the runtime may give all zero-size allocations the
// same address, which would alias distinct tokens.
type mutToken struct{ _ byte }

// fewMax is the inline-leaf capacity: leaf sets at or below it live in a
// linear-scanned slice instead of a map. Most leaves are tiny (an
// object per (subject, predicate), a predicate per (object, subject)),
// and a small slice costs one allocation and no hashing where a map
// costs two allocations plus hashing — the difference dominates bulk
// loads and GC pressure on large graphs.
const fewMax = 8

// bucket3 is a leaf set of third-position terms. Exactly one
// representation is active: few for small sets, set once it outgrows
// fewMax (it never demotes back). A nil *bucket3 behaves as empty for
// reads.
type bucket3 struct {
	owner *mutToken
	few   []Term
	set   map[Term]struct{}
}

// size returns the number of terms in the leaf.
func (b3 *bucket3) size() int {
	if b3 == nil {
		return 0
	}
	if b3.set != nil {
		return len(b3.set)
	}
	return len(b3.few)
}

// has reports membership.
func (b3 *bucket3) has(t Term) bool {
	if b3 == nil {
		return false
	}
	if b3.set != nil {
		_, ok := b3.set[t]
		return ok
	}
	for _, u := range b3.few {
		if u == t {
			return true
		}
	}
	return false
}

// each calls fn for every term until fn returns false; reports whether
// the iteration ran to completion.
func (b3 *bucket3) each(fn func(Term) bool) bool {
	if b3 == nil {
		return true
	}
	if b3.set != nil {
		for t := range b3.set {
			if !fn(t) {
				return false
			}
		}
		return true
	}
	for _, t := range b3.few {
		if !fn(t) {
			return false
		}
	}
	return true
}

// insert adds t to an owned leaf, reporting whether it was absent.
func (b3 *bucket3) insert(t Term) bool {
	if b3.set == nil {
		for _, u := range b3.few {
			if u == t {
				return false
			}
		}
		if len(b3.few) < fewMax {
			b3.few = append(b3.few, t)
			return true
		}
		set := make(map[Term]struct{}, len(b3.few)+1)
		for _, u := range b3.few {
			set[u] = struct{}{}
		}
		b3.set, b3.few = set, nil
	}
	if _, dup := b3.set[t]; dup {
		return false
	}
	b3.set[t] = struct{}{}
	return true
}

// remove deletes t from an owned leaf, reporting whether it was present.
func (b3 *bucket3) remove(t Term) bool {
	if b3.set != nil {
		if _, ok := b3.set[t]; !ok {
			return false
		}
		delete(b3.set, t)
		return true
	}
	for i, u := range b3.few {
		if u == t {
			last := len(b3.few) - 1
			b3.few[i] = b3.few[last]
			b3.few[last] = Term{} // release the strings
			b3.few = b3.few[:last]
			return true
		}
	}
	return false
}

// b2ShardThreshold is the second-level size past which a bucket splits
// into shards at its next copy-on-write. Small buckets (a subject's few
// predicates) stay one flat map; skewed buckets (a predicate's thousands
// of objects in the POS index) shard so the copy a mutation pays stays
// O(n/shardCount).
const b2ShardThreshold = 256

// b2shard is one slice of a sharded second level.
type b2shard struct {
	owner *mutToken
	m     map[Term]*bucket3
}

// b2FewMax is the inline capacity of a second-level bucket: up to this
// many (second key, leaf) entries live in a linear-scanned slice, the
// same trade as bucket3's few (a subject holds a handful of predicates;
// an object is held by a handful of subjects).
const b2FewMax = 4

// b2entry is one inline second-level entry.
type b2entry struct {
	k Term
	v *bucket3
}

// bucket2 is a second-level map: second key -> leaf bucket. At most one
// of few/flat/shards is in use (all nil means an empty few bucket); n
// counts the distinct second keys. Buckets grow monotonically through
// the representations: few -> flat (past b2FewMax) -> shards (past
// b2ShardThreshold, at the next copy-on-write).
type bucket2 struct {
	owner  *mutToken
	n      int
	few    []b2entry
	flat   map[Term]*bucket3
	shards *[shardCount]b2shard
}

// get returns the leaf bucket for second-key b, or nil.
func (b2 *bucket2) get(b Term) *bucket3 {
	switch {
	case b2.shards != nil:
		return b2.shards[shardOf(b)].m[b]
	case b2.flat != nil:
		return b2.flat[b]
	default:
		for i := range b2.few {
			if b2.few[i].k == b {
				return b2.few[i].v
			}
		}
		return nil
	}
}

// each calls fn for every (second key, leaf) entry until fn returns
// false; reports whether the iteration ran to completion.
func (b2 *bucket2) each(fn func(Term, *bucket3) bool) bool {
	switch {
	case b2.shards != nil:
		for i := range b2.shards {
			for k, v := range b2.shards[i].m {
				if !fn(k, v) {
					return false
				}
			}
		}
		return true
	case b2.flat != nil:
		for k, v := range b2.flat {
			if !fn(k, v) {
				return false
			}
		}
		return true
	default:
		for i := range b2.few {
			if !fn(b2.few[i].k, b2.few[i].v) {
				return false
			}
		}
		return true
	}
}

// copyFor returns b2 if tok already owns it, else a writable copy owned
// by tok: few and flat buckets copy (flat splits into shards past the
// threshold, a one-time O(n) after which copies are per-shard), sharded
// buckets copy only the 64-entry shard header — individual shard maps
// stay shared until slot touches them.
func (b2 *bucket2) copyFor(tok *mutToken) *bucket2 {
	if b2.owner == tok {
		return b2
	}
	c := &bucket2{owner: tok, n: b2.n}
	switch {
	case b2.shards != nil:
		shards := *b2.shards
		c.shards = &shards
	case b2.flat == nil:
		// Fresh backing array: the snapshot must never see in-place
		// leaf swaps or appends through a shared slice.
		c.few = append(make([]b2entry, 0, len(b2.few)+1), b2.few...)
	case b2.n >= b2ShardThreshold:
		shards := new([shardCount]b2shard)
		for k, v := range b2.flat {
			s := &shards[shardOf(k)]
			if s.m == nil {
				s.m = make(map[Term]*bucket3)
				s.owner = tok
			}
			s.m[k] = v
		}
		c.shards = shards
	default:
		m := make(map[Term]*bucket3, len(b2.flat)+1)
		for k, v := range b2.flat {
			m[k] = v
		}
		c.flat = m
	}
	return c
}

// slot returns the writable map holding second-key b for the flat and
// sharded representations. b2 must already be owned by tok (see
// copyFor) and must not be in few form (see mutableLeaf).
func (b2 *bucket2) slot(tok *mutToken, b Term) map[Term]*bucket3 {
	if b2.shards == nil {
		return b2.flat
	}
	s := &b2.shards[shardOf(b)]
	if s.owner != tok {
		m := make(map[Term]*bucket3, len(s.m)+1)
		for k, v := range s.m {
			m[k] = v
		}
		s.m, s.owner = m, tok
	}
	return s.m
}

// mutableLeaf returns the writable leaf for second-key b of an owned
// bucket, creating or path-copying it as needed; created reports a new
// entry. A few bucket promotes to flat when it outgrows b2FewMax.
func (b2 *bucket2) mutableLeaf(tok *mutToken, b Term, create bool) (b3 *bucket3, created bool) {
	if b2.flat == nil && b2.shards == nil {
		for i := range b2.few {
			if b2.few[i].k == b {
				b3 := b2.few[i].v
				if b3.owner != tok {
					b3 = copyB3(tok, b3)
					b2.few[i].v = b3
				}
				return b3, false
			}
		}
		if !create {
			return nil, false
		}
		if len(b2.few) < b2FewMax {
			b3 := &bucket3{owner: tok}
			b2.few = append(b2.few, b2entry{k: b, v: b3})
			return b3, true
		}
		m := make(map[Term]*bucket3, len(b2.few)+1)
		for _, e := range b2.few {
			m[e.k] = e.v
		}
		b2.flat, b2.few = m, nil
	}
	return mutableB3(tok, b2.slot(tok, b), b, create)
}

// deleteLeaf drops second-key b from an owned bucket. The caller
// adjusts n.
func (b2 *bucket2) deleteLeaf(tok *mutToken, b Term) {
	switch {
	case b2.shards != nil:
		delete(b2.slot(tok, b), b)
	case b2.flat != nil:
		delete(b2.flat, b)
	default:
		for i := range b2.few {
			if b2.few[i].k == b {
				last := len(b2.few) - 1
				b2.few[i] = b2.few[last]
				b2.few[last] = b2entry{} // release the strings and leaf
				b2.few = b2.few[:last]
				return
			}
		}
	}
}

// copyB3 returns a writable copy of a leaf owned by tok.
func copyB3(tok *mutToken, b3 *bucket3) *bucket3 {
	c := &bucket3{owner: tok}
	if b3.set != nil {
		c.set = make(map[Term]struct{}, len(b3.set)+1)
		for k := range b3.set {
			c.set[k] = struct{}{}
		}
	} else {
		// Fresh backing array: the snapshot's copy must never see
		// appends or in-place removals through a shared slice.
		c.few = append(make([]Term, 0, len(b3.few)+1), b3.few...)
	}
	return c
}

// mutableB3 returns the writable leaf for second-key b inside slot m,
// creating or path-copying it as needed; created reports a new entry.
func mutableB3(tok *mutToken, m map[Term]*bucket3, b Term, create bool) (b3 *bucket3, created bool) {
	b3 = m[b]
	switch {
	case b3 == nil:
		if !create {
			return nil, false
		}
		b3 = &bucket3{owner: tok}
		m[b] = b3
		return b3, true
	case b3.owner != tok:
		b3 = copyB3(tok, b3)
		m[b] = b3
	}
	return b3, false
}

// shardCount splits each index's top level so the copy a mutation pays
// after a snapshot is O(n/shardCount), not O(n). Must be a power of two.
const shardCount = 64

// cowShard is one slice of an index's top level: first key -> second
// bucket, owned by a mutation token like every deeper level.
type cowShard struct {
	owner *mutToken
	m     map[Term]*bucket2
}

// cowIndex is a three-level nested index (first key -> second key -> set
// of third keys) in which every level carries the mutation token that
// owns it. Writes go through add/remove, which path-copy any level not
// owned by the current token before touching it; levels reachable from a
// snapshot are therefore never written in place. The top level is
// sharded by first-key hash, so the one unavoidable map copy per
// mutate-after-snapshot touches a 1/shardCount slice of the keys.
type cowIndex struct {
	shards [shardCount]cowShard
}

// shardOf hashes a term to its top-level shard (FNV-1a over the value).
func shardOf(t Term) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(t.Value); i++ {
		h ^= uint32(t.Value[i])
		h *= 16777619
	}
	h ^= uint32(t.Kind)
	h *= 16777619
	return h & (shardCount - 1)
}

// top returns the shard map holding first-key a, for reads (may be nil).
func (ix *cowIndex) top(a Term) map[Term]*bucket2 {
	return ix.shards[shardOf(a)].m
}

// mutable returns first-key a's shard with its map writable, copying it
// first (shallow: keys and bucket pointers) if a snapshot still shares
// it.
func (ix *cowIndex) mutable(tok *mutToken, a Term) *cowShard {
	s := &ix.shards[shardOf(a)]
	if s.owner != tok {
		m := make(map[Term]*bucket2, len(s.m)+1)
		for k, v := range s.m {
			m[k] = v
		}
		s.m, s.owner = m, tok
	}
	return s
}

// mutableB2 returns the writable bucket for first-key a, creating or
// copy-on-writing it as needed. s must be a's writable shard.
func (s *cowShard) mutableB2(tok *mutToken, a Term) *bucket2 {
	b2 := s.m[a]
	if b2 == nil {
		b2 = &bucket2{owner: tok}
		s.m[a] = b2
		return b2
	}
	if c := b2.copyFor(tok); c != b2 {
		s.m[a] = c
		b2 = c
	}
	return b2
}

func (ix *cowIndex) add(tok *mutToken, a, b, c Term) bool {
	s := ix.mutable(tok, a)
	b2 := s.mutableB2(tok, a)
	b3, created := b2.mutableLeaf(tok, b, true)
	if created {
		b2.n++
	}
	return b3.insert(c)
}

func (ix *cowIndex) remove(tok *mutToken, a, b, c Term) bool {
	if !ix.has(a, b, c) {
		return false
	}
	s := ix.mutable(tok, a)
	b2 := s.mutableB2(tok, a)
	b3, _ := b2.mutableLeaf(tok, b, false)
	b3.remove(c)
	if b3.size() == 0 {
		b2.deleteLeaf(tok, b)
		b2.n--
		if b2.n == 0 {
			delete(s.m, a)
		}
	}
	return true
}

func (ix *cowIndex) has(a, b, c Term) bool {
	b2 := ix.top(a)[a]
	if b2 == nil {
		return false
	}
	return b2.get(b).has(c)
}

// leaf returns the leaf under (a, b); a nil *bucket3 reads as empty.
func (ix *cowIndex) leaf(a, b Term) *bucket3 {
	b2 := ix.top(a)[a]
	if b2 == nil {
		return nil
	}
	return b2.get(b)
}

// firstLen returns the number of distinct first keys.
func (ix *cowIndex) firstLen() int {
	n := 0
	for i := range ix.shards {
		n += len(ix.shards[i].m)
	}
	return n
}

// NewGraph returns an empty graph. Shard maps materialize lazily on
// first write.
func NewGraph() *Graph {
	return &Graph{mut: &mutToken{}}
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return g.n }

// Version returns a counter that increases on every successful Add or
// Remove. Two equal Version values bracket a span with no mutations, so
// state derived from the graph in between is still current. A snapshot
// keeps the version it was taken at forever.
func (g *Graph) Version() uint64 { return g.ver }

// Frozen reports whether g is an immutable snapshot (see Snapshot).
func (g *Graph) Frozen() bool { return g.mut == nil }

// Snapshot returns a frozen copy-on-write view of the graph: an O(1)
// operation that shares the graph's indexes and freezes them by
// refreshing the live graph's mutation token. Reads on the snapshot are
// safe concurrently with any later mutation of the live graph — a
// mutation path-copies the first/second-level buckets it touches instead
// of writing shared state — and always observe exactly the triples
// present at snapshot time. The first mutation through a given top-level
// shard after a snapshot additionally re-copies that shard's map
// (pointer-shallow, O(distinct first keys / 64)); subsequent mutations
// pay only for the buckets they touch, until the next Snapshot.
//
// Snapshot must be serialized with mutations (call it from the writing
// goroutine, or under the caller's write lock). Snapshots of an
// unchanged graph are cached, so taking one per published query-state is
// free when nothing mutated in between. The snapshot of a snapshot is
// the snapshot itself. Mutating a snapshot panics.
func (g *Graph) Snapshot() *Graph {
	if g.mut == nil {
		return g
	}
	if g.snap != nil && g.snapVer == g.ver {
		return g.snap
	}
	snap := &Graph{spo: g.spo, n: g.n, ver: g.ver}
	// A still-deferred secondary index transfers to the snapshot: the
	// retained keys match the frozen SPO state exactly as long as no
	// mutation happened, and the first mutation materializes the live
	// graph's indexes before touching anything. A concurrent READER may
	// be materializing an index right now (ensurePOS/ensureOSP fill the
	// shards under the bulk state's mutex before clearing the pointer),
	// so each index copy and its pending-state load must happen under
	// that same mutex — an unsynchronized copy could capture half-filled
	// shards after the pointer already reads nil, leaving the snapshot's
	// index permanently torn.
	if bs := g.lazyPOS.Load(); bs != nil {
		bs.mu.Lock()
		snap.pos = g.pos
		snap.lazyPOS.Store(g.lazyPOS.Load())
		bs.mu.Unlock()
	} else {
		snap.pos = g.pos
	}
	if bs := g.lazyOSP.Load(); bs != nil {
		bs.mu.Lock()
		snap.osp = g.osp
		snap.lazyOSP.Store(g.lazyOSP.Load())
		bs.mu.Unlock()
	} else {
		snap.osp = g.osp
	}
	// Disown every bucket: the next mutation on the live graph copies
	// before writing, so snap's view never changes.
	g.mut = &mutToken{}
	g.snap, g.snapVer = snap, g.ver
	return snap
}

// bulkState is the deferred-construction state a bulk-loaded graph
// carries until both secondary indexes materialize: the interned term
// table and the sorted packed (s, p, o) keys. Both materializations
// share one state and one mutex.
type bulkState struct {
	mu    sync.Mutex
	table []Term
	keys  []uint64
}

// ensurePOS materializes the POS index of a bulk-loaded graph. The nil
// fast path makes this free on eagerly-built graphs; the slow path is
// safe for concurrent readers of a frozen snapshot.
func (g *Graph) ensurePOS() {
	bs := g.lazyPOS.Load()
	if bs == nil {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if g.lazyPOS.Load() == nil { // built while we waited for the lock
		return
	}
	fillIndexLazy(&g.pos, g.mut, bs, termBits, 0, 2*termBits) // p, o, s
	g.lazyPOS.Store(nil)
}

// ensureOSP materializes the OSP index, like ensurePOS.
func (g *Graph) ensureOSP() {
	bs := g.lazyOSP.Load()
	if bs == nil {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if g.lazyOSP.Load() == nil {
		return
	}
	fillIndexLazy(&g.osp, g.mut, bs, 0, 2*termBits, termBits) // o, s, p
	g.lazyOSP.Store(nil)
}

// writeToken returns the token mutations must own, panicking on frozen
// snapshots — silently dropping writes would corrupt derived state.
// Deferred secondary indexes materialize here first: a mutation must
// update all three indexes, so none may still be pending.
func (g *Graph) writeToken() *mutToken {
	if g.mut == nil {
		panic("rdf: mutating a frozen graph snapshot")
	}
	g.ensurePOS()
	g.ensureOSP()
	return g.mut
}

// Add inserts t, reporting whether it was not already present.
// Invalid triples (per Triple.Validate) are rejected and not inserted.
// Panics if g is a frozen snapshot.
func (g *Graph) Add(t Triple) bool {
	if t.Validate() != nil {
		return false
	}
	tok := g.writeToken()
	if !g.spo.add(tok, t.S, t.P, t.O) {
		return false
	}
	g.pos.add(tok, t.P, t.O, t.S)
	g.osp.add(tok, t.O, t.S, t.P)
	g.n++
	g.ver++
	return true
}

// Remove deletes t, reporting whether it was present. Panics if g is a
// frozen snapshot.
func (g *Graph) Remove(t Triple) bool {
	tok := g.writeToken()
	if !g.spo.remove(tok, t.S, t.P, t.O) {
		return false
	}
	g.pos.remove(tok, t.P, t.O, t.S)
	g.osp.remove(tok, t.O, t.S, t.P)
	g.n--
	g.ver++
	return true
}

// Has reports whether t is in the graph.
func (g *Graph) Has(t Triple) bool {
	return g.spo.has(t.S, t.P, t.O)
}

// Match calls fn for every triple matching the pattern; a zero Term in a
// position is a wildcard. Iteration stops early if fn returns false.
// The most selective index available for the bound positions is used.
func (g *Graph) Match(s, p, o Term, fn func(Triple) bool) {
	switch {
	case !s.IsZero() && !p.IsZero() && !o.IsZero():
		if g.Has(Triple{s, p, o}) {
			fn(Triple{s, p, o})
		}
	case !s.IsZero() && !p.IsZero():
		g.spo.leaf(s, p).each(func(obj Term) bool {
			return fn(Triple{s, p, obj})
		})
	case !s.IsZero() && !o.IsZero():
		g.ensureOSP()
		g.osp.leaf(o, s).each(func(pred Term) bool {
			return fn(Triple{s, pred, o})
		})
	case !p.IsZero() && !o.IsZero():
		g.ensurePOS()
		g.pos.leaf(p, o).each(func(subj Term) bool {
			return fn(Triple{subj, p, o})
		})
	case !s.IsZero():
		if b2 := g.spo.top(s)[s]; b2 != nil {
			b2.each(func(pred Term, objs *bucket3) bool {
				return objs.each(func(obj Term) bool {
					return fn(Triple{s, pred, obj})
				})
			})
		}
	case !p.IsZero():
		g.ensurePOS()
		if b2 := g.pos.top(p)[p]; b2 != nil {
			b2.each(func(obj Term, subjs *bucket3) bool {
				return subjs.each(func(subj Term) bool {
					return fn(Triple{subj, p, obj})
				})
			})
		}
	case !o.IsZero():
		g.ensureOSP()
		if b2 := g.osp.top(o)[o]; b2 != nil {
			b2.each(func(subj Term, preds *bucket3) bool {
				return preds.each(func(pred Term) bool {
					return fn(Triple{subj, pred, o})
				})
			})
		}
	default:
		for i := range g.spo.shards {
			for subj, b2 := range g.spo.shards[i].m {
				if !b2.each(func(pred Term, objs *bucket3) bool {
					return objs.each(func(obj Term) bool {
						return fn(Triple{subj, pred, obj})
					})
				}) {
					return
				}
			}
		}
	}
}

// Find returns all triples matching the pattern (zero Term = wildcard),
// sorted deterministically.
func (g *Graph) Find(s, p, o Term) []Triple {
	var out []Triple
	g.Match(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Objects returns the distinct objects of triples (s, p, ?o), sorted.
func (g *Graph) Objects(s, p Term) []Term {
	objs := g.spo.leaf(s, p)
	out := make([]Term, 0, objs.size())
	objs.each(func(o Term) bool {
		out = append(out, o)
		return true
	})
	sortTerms(out)
	return out
}

// FirstObject returns one object of (s, p, ?o) and whether any exists.
// When several objects exist the smallest in Term.Compare order is
// returned, so the choice is deterministic.
func (g *Graph) FirstObject(s, p Term) (Term, bool) {
	var best Term
	first := true
	g.spo.leaf(s, p).each(func(o Term) bool {
		if first || o.Compare(best) < 0 {
			best, first = o, false
		}
		return true
	})
	return best, !first
}

// Subjects returns the distinct subjects of triples (?s, p, o), sorted.
func (g *Graph) Subjects(p, o Term) []Term {
	g.ensurePOS()
	subjs := g.pos.leaf(p, o)
	out := make([]Term, 0, subjs.size())
	subjs.each(func(s Term) bool {
		out = append(out, s)
		return true
	})
	sortTerms(out)
	return out
}

// AllSubjects returns the distinct subjects appearing in the graph, sorted.
func (g *Graph) AllSubjects() []Term {
	out := make([]Term, 0, g.spo.firstLen())
	for i := range g.spo.shards {
		for s := range g.spo.shards[i].m {
			out = append(out, s)
		}
	}
	sortTerms(out)
	return out
}

// Triples returns every triple, sorted deterministically.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.n)
	g.Match(Term{}, Term{}, Term{}, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Merge adds every triple of other into g and returns how many were new.
func (g *Graph) Merge(other *Graph) int {
	added := 0
	other.Match(Term{}, Term{}, Term{}, func(t Triple) bool {
		if g.Add(t) {
			added++
		}
		return true
	})
	return added
}

// Clone returns an independent deep copy of the graph. Unlike Snapshot
// the copy is mutable and shares nothing; prefer Snapshot for read-only
// point-in-time views.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.Merge(g)
	return c
}

func sortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
