package core

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"repro/internal/rdf"
)

// IDTable gives each local catalog item a dense uint32 ID the first time
// a writer sees it, so that class sets can be bitsets and the linkage
// engine can keep its local values in slices indexed by ID. One table is
// shared by an InstanceIndex, which owns it, and the linkage engine a
// pipeline builds over it (linkage.NewWithIDs): the bits of a class set
// address the engine's value columns directly, and a query never hashes
// a catalog term between expansion and scoring.
//
// The table is append-only. An ID is never reused: a removed item keeps
// its ID and leaves every set, and re-adding it brings the same ID back.
//
// Concurrency follows rdf.Graph: one writer calls Assign, and Snapshot
// returns, in O(1), a frozen table that any number of goroutines may
// read while the writer keeps assigning. The writer never writes an
// element a snapshot can see: the ID -> item slice only grows past a
// snapshot's length, and the item -> ID lookup is split into
// copy-on-write shards, of which the first Assign after a snapshot
// copies only the one it touches.
type IDTable struct {
	items  []rdf.Term
	shards [idShards]idShard
	// tok owns the shards the writer may write in place; nil marks a
	// snapshot.
	tok *mutToken
	// snap is the snapshot of the current state, handed out again until
	// the next new ID, so an instance index and an engine snapshotted
	// together read one frozen table.
	snap *IDTable
}

// idShards splits the lookup so that the map copy a write pays after a
// snapshot covers about 120 items of a 30,000-item catalog. Must be a
// power of two.
const idShards = 256

// idShard is one slice of the item -> ID lookup, owned by the token that
// may write it.
type idShard struct {
	owner *mutToken
	m     map[rdf.Term]uint32
}

// mutToken is an ownership marker compared by pointer identity, as in
// rdf.Graph. It must not be zero-sized, or distinct tokens could share
// an address.
type mutToken struct{ _ byte }

var idSeed = maphash.MakeSeed()

func idShardOf(item rdf.Term) int {
	return int(maphash.String(idSeed, item.Value) & (idShards - 1))
}

// NewIDTable returns an empty writer's table.
func NewIDTable() *IDTable { return &IDTable{tok: &mutToken{}} }

// Len returns the number of IDs assigned: every ID is below it.
func (t *IDTable) Len() int { return len(t.items) }

// Item returns the item with the given ID, which must be below Len.
func (t *IDTable) Item(id uint32) rdf.Term { return t.items[id] }

// ID returns item's ID, if it has one.
func (t *IDTable) ID(item rdf.Term) (uint32, bool) {
	id, ok := t.shards[idShardOf(item)].m[item]
	return id, ok
}

// Frozen reports whether t is a snapshot.
func (t *IDTable) Frozen() bool { return t.tok == nil }

// Assign returns item's ID, giving it the next one if it has none.
// Panics on a snapshot.
func (t *IDTable) Assign(item rdf.Term) uint32 {
	if t.tok == nil {
		panic("core: assigning an ID in a frozen IDTable snapshot")
	}
	s := &t.shards[idShardOf(item)]
	if id, ok := s.m[item]; ok {
		return id
	}
	if s.owner != t.tok {
		m := make(map[rdf.Term]uint32, len(s.m)+1)
		for k, v := range s.m {
			m[k] = v
		}
		s.m, s.owner = m, t.tok
	}
	id := uint32(len(t.items))
	s.m[item] = id
	t.items = append(t.items, item)
	t.snap = nil
	return id
}

// reserve sizes an empty writer's table for n items, so that assigning
// them grows no map.
func (t *IDTable) reserve(n int) {
	t.items = slices.Grow(t.items, n)
	per := n/idShards + n/idShards/4 + 1 // items hash unevenly over shards
	for i := range t.shards {
		if t.shards[i].m == nil {
			t.shards[i] = idShard{owner: t.tok, m: make(map[rdf.Term]uint32, per)}
		}
	}
}

// Snapshot returns a frozen table of the current state in O(1). Calls
// with no new ID in between return the same snapshot. The snapshot of a
// snapshot is itself. Must be serialized with Assign.
func (t *IDTable) Snapshot() *IDTable {
	if t.tok == nil {
		return t
	}
	if t.snap == nil {
		n := len(t.items)
		t.snap = &IDTable{items: t.items[:n:n], shards: t.shards}
		// Disown every shard: the next Assign copies before it writes.
		t.tok = &mutToken{}
	}
	return t.snap
}

// Items returns the items of set, sorted by rdf.Term.Compare. Every ID
// in set must be below Len.
func (t *IDTable) Items(set IDSet) []rdf.Term {
	out := make([]rdf.Term, 0, set.Len())
	for wi, w := range set {
		for w != 0 {
			out = append(out, t.items[wi<<6|bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	slices.SortFunc(out, rdf.Term.Compare)
	return out
}

// IDSet is a set of catalog IDs held as a bitset: ID i is bit i%64 of
// word i/64. Words past the end are zero, so sets built at different
// table sizes combine. A set that has been handed out is never written
// again.
type IDSet []uint64

// Has reports whether id is in s.
func (s IDSet) Has(id uint32) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// Len returns the number of IDs in s.
func (s IDSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// or returns s ∪ o. It writes into s only when own says s is the
// caller's alone and s is long enough; otherwise it returns a new set.
func (s IDSet) or(o IDSet, own bool) IDSet {
	if !own || len(s) < len(o) {
		n := make(IDSet, max(len(s), len(o)))
		copy(n, s)
		s = n
	}
	for i, w := range o {
		s[i] |= w
	}
	return s
}
