package rdf

import (
	"slices"
	"sort"
	"sync/atomic"
)

// Graph is an in-memory RDF triple store with one index, subject ->
// predicate -> objects (SPO). Every read the linking pipeline serves
// binds the subject: an item's description, the values of one of its
// properties, its classes. Those reads touch only that subject's
// entry. A pattern that leaves the subject open walks every subject;
// only one-time passes (building the catalog indexes, loading an
// ontology, discovering keys) make such walks.
//
// Graph is not safe for concurrent mutation, but it supports cheap
// copy-on-write snapshots: Snapshot returns a frozen view that remains
// valid — and identical to the graph at snapshot time — while the live
// graph keeps mutating. Concurrent readers of a snapshot never race
// with the live graph's writers, which is what lets slow queries run
// entirely outside a service's write lock.
//
// A graph may also remember its binary snapshot encoding for one
// version (see AppendSnapshot): a graph DecodeSnapshot returns keeps
// the bytes it was read from, a frozen snapshot keeps what it was first
// encoded to, and Snapshot passes the memo on while the graph is
// unchanged. A mutation makes the memo stale, and Clone copies none.
type Graph struct {
	spo cowIndex
	n   int
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
	// enc is the graph's snapshot encoding at the version it records, or
	// nil. It is atomic because encoding a frozen snapshot stores it, and
	// any goroutine may encode one.
	enc atomic.Pointer[snapshotMemo]
}

// mutToken is an ownership marker compared by pointer identity. It must
// not be zero-sized: the runtime may give all zero-size allocations the
// same address, which would alias distinct tokens.
type mutToken struct{ _ byte }

// fewMax is the inline-leaf capacity: leaf sets at or below it live in a
// linear-scanned slice instead of a map. Most leaves are tiny (an item
// holds one or a few values per property), and a small slice costs one
// allocation and no hashing where a map costs two allocations plus
// hashing — the difference dominates bulk loads and GC pressure on
// large graphs.
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

// b2FewMax is the inline capacity of a second-level bucket: up to this
// many (predicate, leaf) entries live in a linear-scanned slice, the
// same trade as bucket3's few (a subject holds a handful of predicates).
const b2FewMax = 4

// b2entry is one inline second-level entry.
type b2entry struct {
	k Term
	v *bucket3
}

// bucket2 is a second-level map: predicate -> leaf bucket, one per
// subject. At most one of few/flat is in use (both nil means an empty
// few bucket); a bucket moves from few to flat once it outgrows
// b2FewMax and never moves back. It holds one subject's predicates, so
// the copy a mutation pays after a snapshot is bounded by that item's
// own description.
type bucket2 struct {
	owner *mutToken
	few   []b2entry
	flat  map[Term]*bucket3
}

// get returns the leaf bucket for predicate b, or nil.
func (b2 *bucket2) get(b Term) *bucket3 {
	if b2.flat != nil {
		return b2.flat[b]
	}
	for i := range b2.few {
		if b2.few[i].k == b {
			return b2.few[i].v
		}
	}
	return nil
}

// each calls fn for every (predicate, leaf) entry until fn returns
// false; reports whether the iteration ran to completion.
func (b2 *bucket2) each(fn func(Term, *bucket3) bool) bool {
	if b2.flat != nil {
		for k, v := range b2.flat {
			if !fn(k, v) {
				return false
			}
		}
		return true
	}
	for i := range b2.few {
		if !fn(b2.few[i].k, b2.few[i].v) {
			return false
		}
	}
	return true
}

// copyFor returns b2 if tok already owns it, else a writable copy owned
// by tok. The leaves stay shared until mutableLeaf touches them.
func (b2 *bucket2) copyFor(tok *mutToken) *bucket2 {
	if b2.owner == tok {
		return b2
	}
	c := &bucket2{owner: tok}
	if b2.flat != nil {
		c.flat = make(map[Term]*bucket3, len(b2.flat)+1)
		for k, v := range b2.flat {
			c.flat[k] = v
		}
	} else {
		// Fresh backing array: the snapshot must never see in-place
		// leaf swaps or appends through a shared slice.
		c.few = append(make([]b2entry, 0, len(b2.few)+1), b2.few...)
	}
	return c
}

// mutableLeaf returns the writable leaf for predicate b of an owned
// bucket, creating or path-copying it as needed. A few bucket promotes
// to flat when it outgrows b2FewMax.
func (b2 *bucket2) mutableLeaf(tok *mutToken, b Term, create bool) *bucket3 {
	if b2.flat == nil {
		for i := range b2.few {
			if b2.few[i].k == b {
				b3 := b2.few[i].v
				if b3.owner != tok {
					b3 = copyB3(tok, b3)
					b2.few[i].v = b3
				}
				return b3
			}
		}
		if !create {
			return nil
		}
		if len(b2.few) < b2FewMax {
			b3 := &bucket3{owner: tok}
			b2.few = append(b2.few, b2entry{k: b, v: b3})
			return b3
		}
		m := make(map[Term]*bucket3, len(b2.few)+1)
		for _, e := range b2.few {
			m[e.k] = e.v
		}
		b2.flat, b2.few = m, nil
	}
	b3 := b2.flat[b]
	switch {
	case b3 == nil:
		if !create {
			return nil
		}
		b3 = &bucket3{owner: tok}
		b2.flat[b] = b3
	case b3.owner != tok:
		b3 = copyB3(tok, b3)
		b2.flat[b] = b3
	}
	return b3
}

// deleteLeaf drops predicate b from an owned bucket.
func (b2 *bucket2) deleteLeaf(b Term) {
	if b2.flat != nil {
		delete(b2.flat, b)
		return
	}
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

// shardCount splits the index's top level so the copy a mutation pays
// after a snapshot is O(n/shardCount), not O(n). Must be a power of two.
const shardCount = 64

// cowShard is one slice of the index's top level: subject -> its
// bucket, owned by a mutation token like every deeper level.
type cowShard struct {
	owner *mutToken
	m     map[Term]*bucket2
}

// cowIndex is a three-level nested index (subject -> predicate -> set
// of objects) in which every level carries the mutation token that
// owns it. Writes go through add/remove, which path-copy any level not
// owned by the current token before touching it; levels reachable from a
// snapshot are therefore never written in place. The top level is
// sharded by subject hash, so the one unavoidable map copy per
// mutate-after-snapshot touches a 1/shardCount slice of the subjects.
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

// bucket returns subject a's bucket, or nil.
func (ix *cowIndex) bucket(a Term) *bucket2 {
	return ix.shards[shardOf(a)].m[a]
}

// mutable returns subject a's shard with its map writable, copying it
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

// mutableB2 returns the writable bucket for subject a, creating or
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
	return s.mutableB2(tok, a).mutableLeaf(tok, b, true).insert(c)
}

func (ix *cowIndex) remove(tok *mutToken, a, b, c Term) bool {
	if !ix.leaf(a, b).has(c) {
		return false
	}
	s := ix.mutable(tok, a)
	b2 := s.mutableB2(tok, a)
	b3 := b2.mutableLeaf(tok, b, false)
	b3.remove(c)
	if b3.size() == 0 {
		b2.deleteLeaf(b)
		if len(b2.few) == 0 && len(b2.flat) == 0 {
			delete(s.m, a)
		}
	}
	return true
}

// leaf returns the leaf under (a, b); a nil *bucket3 reads as empty.
func (ix *cowIndex) leaf(a, b Term) *bucket3 {
	b2 := ix.bucket(a)
	if b2 == nil {
		return nil
	}
	return b2.get(b)
}

// firstLen returns the number of distinct subjects.
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
// operation that shares the graph's index and freezes it by refreshing
// the live graph's mutation token. Reads on the snapshot are safe
// concurrently with any later mutation of the live graph — a mutation
// path-copies the subject bucket and leaf it touches instead of writing
// shared state — and always observe exactly the triples present at
// snapshot time. The first mutation through a given top-level shard
// after a snapshot additionally re-copies that shard's map
// (pointer-shallow, O(distinct subjects / 64)); subsequent mutations
// pay only for the buckets they touch, until the next Snapshot.
//
// Snapshot must be serialized with mutations (call it from the writing
// goroutine, or under the caller's write lock). Snapshots of an
// unchanged graph are cached, so taking one per published query-state is
// free when nothing mutated in between. The snapshot of a snapshot is
// the snapshot itself. Mutating a snapshot panics.
//
// The snapshot inherits the graph's encoding memo while it is current;
// the first snapshot after a mutation drops the stale one.
func (g *Graph) Snapshot() *Graph {
	if g.mut == nil {
		return g
	}
	if g.snap != nil && g.snapVer == g.ver {
		return g.snap
	}
	snap := &Graph{spo: g.spo, n: g.n, ver: g.ver}
	if m := g.enc.Load(); m != nil {
		if m.ver == g.ver {
			snap.enc.Store(m)
		} else {
			g.enc.Store(nil)
		}
	}
	// Disown every bucket: the next mutation on the live graph copies
	// before writing, so snap's view never changes.
	g.mut = &mutToken{}
	g.snap, g.snapVer = snap, g.ver
	return snap
}

// writeToken returns the token mutations must own, panicking on frozen
// snapshots — silently dropping writes would corrupt derived state.
func (g *Graph) writeToken() *mutToken {
	if g.mut == nil {
		panic("rdf: mutating a frozen graph snapshot")
	}
	return g.mut
}

// Add inserts t, reporting whether it was not already present.
// Invalid triples (per Triple.Validate) are rejected and not inserted.
// Panics if g is a frozen snapshot.
func (g *Graph) Add(t Triple) bool {
	if t.Validate() != nil {
		return false
	}
	if !g.spo.add(g.writeToken(), t.S, t.P, t.O) {
		return false
	}
	g.n++
	g.ver++
	return true
}

// Remove deletes t, reporting whether it was present. Panics if g is a
// frozen snapshot.
func (g *Graph) Remove(t Triple) bool {
	if !g.spo.remove(g.writeToken(), t.S, t.P, t.O) {
		return false
	}
	g.n--
	g.ver++
	return true
}

// Has reports whether t is in the graph.
func (g *Graph) Has(t Triple) bool {
	return g.spo.leaf(t.S, t.P).has(t.O)
}

// Match calls fn for every triple matching the pattern; a zero Term in a
// position is a wildcard. Iteration stops early if fn returns false.
// A pattern that binds the subject reads only that subject; any other
// pattern walks every subject and narrows each one by the bound
// predicate and object.
func (g *Graph) Match(s, p, o Term, fn func(Triple) bool) {
	if !s.IsZero() {
		if b2 := g.spo.bucket(s); b2 != nil {
			matchSubject(s, b2, p, o, fn)
		}
		return
	}
	for i := range g.spo.shards {
		for subj, b2 := range g.spo.shards[i].m {
			if !matchSubject(subj, b2, p, o, fn) {
				return
			}
		}
	}
}

// matchSubject calls fn for the triples of subject s, held in b2, that
// match p and o (zero terms are wildcards); it reports whether fn never
// asked to stop.
func matchSubject(s Term, b2 *bucket2, p, o Term, fn func(Triple) bool) bool {
	if !p.IsZero() {
		return matchLeaf(s, p, b2.get(p), o, fn)
	}
	return b2.each(func(pred Term, objs *bucket3) bool {
		return matchLeaf(s, pred, objs, o, fn)
	})
}

// matchLeaf calls fn for the triples (s, p, x) with x in objs that match
// o; it reports whether fn never asked to stop.
func matchLeaf(s, p Term, objs *bucket3, o Term, fn func(Triple) bool) bool {
	if !o.IsZero() {
		return !objs.has(o) || fn(Triple{s, p, o})
	}
	return objs.each(func(obj Term) bool {
		return fn(Triple{s, p, obj})
	})
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
	slices.SortFunc(out, Term.Compare)
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

// Subjects returns the distinct subjects of triples (?s, p, o), sorted;
// a zero term is a wildcard, as in Match. It walks every subject.
func (g *Graph) Subjects(p, o Term) []Term {
	var out []Term
	g.Match(Term{}, p, o, func(t Triple) bool {
		out = append(out, t.S)
		return true
	})
	slices.SortFunc(out, Term.Compare)
	return slices.Compact(out)
}

// AllSubjects returns the distinct subjects appearing in the graph, sorted.
func (g *Graph) AllSubjects() []Term {
	out := make([]Term, 0, g.spo.firstLen())
	for i := range g.spo.shards {
		for s := range g.spo.shards[i].m {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, Term.Compare)
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
// the copy is mutable and shares nothing, the encoding memo included;
// prefer Snapshot for read-only point-in-time views.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.Merge(g)
	return c
}
