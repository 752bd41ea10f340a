package linkage

import (
	"unicode/utf8"

	"repro/internal/similarity"
)

// derivations records what the hot comparison loop needs precomputed
// for a value, as the union over the engine's comparators: token lists
// and token sets when any measure consumes them, and per comparator
// slot the measure to precompile values with. It is fixed at New and
// shared by the writer's index and every snapshot.
type derivations struct {
	tokenize bool
	sets     bool
	// prep holds, per comparator slot, the measure to precompile values
	// with (nil for slots whose measure is not a PreparedMeasure).
	// Prepared patterns are per-slot because a measure's preparation may
	// depend on instance state (a fitted TF-IDF), so two comparators
	// never share one pattern even when their measures look alike.
	prep []similarity.PreparedMeasure
}

// newDerivations derives the union of derivation needs from the
// compiled comparators.
func newDerivations(comps []compiledComparator) *derivations {
	d := &derivations{prep: make([]similarity.PreparedMeasure, len(comps))}
	for i := range comps {
		if comps[i].tokens != nil {
			d.tokenize = true
		}
		if comps[i].tokenSets != nil {
			d.sets = true
		}
		d.prep[i] = comps[i].prepared
	}
	return d
}

// entry derives a fresh entry for value: rune length and, when any
// comparator needs them, tokens and token set. Prepared patterns are
// added per slot by prepare.
func (d *derivations) entry(value string) *cacheEntry {
	e := &cacheEntry{runeLen: utf8.RuneCountInString(value)}
	if d.tokenize {
		e.tokens = similarity.Tokenize(value)
		if d.sets {
			e.tokenSet = make(map[string]struct{}, len(e.tokens))
			for _, tok := range e.tokens {
				e.tokenSet[tok] = struct{}{}
			}
		}
	}
	return e
}

// prepare fills e's prepared pattern for slot, if that slot's measure
// has one and it is not built yet.
func (d *derivations) prepare(e *cacheEntry, value string, slot int) {
	pm := d.prep[slot]
	if pm == nil {
		return
	}
	if e.prepared == nil {
		e.prepared = make([]similarity.Prepared, len(d.prep))
	}
	if e.prepared[slot] == nil {
		e.prepared[slot] = pm.Prepare(value)
	}
}

// valueCache is the writer's per-value derivation cache for the local
// index: one Tokenize, one token set and one prepared pattern per
// distinct value string, shared across every comparator column, so a
// value appearing under three comparators pays for its derivations once.
//
// Entries are reference-counted by the indexed values that point at
// them, so ApplyPatches keeps the cache exactly as large as the live
// index: a value's entry is dropped when its last referencing item
// leaves the index. Only the writer touches the cache. Snapshots hold
// entries, never the cache, and read only fields the writer no longer
// writes once the entry is indexed under their comparator: the rune
// length and tokens are set at creation, and a prepared pattern is
// filled only in a slot that was still empty, which no snapshot reads.
type valueCache struct {
	d       *derivations
	entries map[string]*cacheEntry
}

// cacheEntry is everything derived from one distinct value string.
type cacheEntry struct {
	refs     int
	runeLen  int
	tokens   []string
	tokenSet map[string]struct{}
	// prepared is indexed by comparator slot; allocated on first use and
	// filled per slot as values are acquired for that comparator.
	prepared []similarity.Prepared
}

// acquire returns the entry for value, creating it on first reference,
// and takes one reference. slot identifies the comparator column the
// value is being indexed under, so measure-specific preparation lands in
// that slot.
func (vc *valueCache) acquire(value string, slot int) *cacheEntry {
	e := vc.entries[value]
	if e == nil {
		e = vc.d.entry(value)
		vc.entries[value] = e
	}
	vc.d.prepare(e, value, slot)
	e.refs++
	return e
}

// release drops one reference to each value, deleting entries whose
// last reference left. The inverse of the acquires that produced vals.
func (vc *valueCache) release(vals []indexedValue) {
	for i := range vals {
		v := &vals[i]
		v.entry.refs--
		if v.entry.refs <= 0 {
			delete(vc.entries, v.value)
		}
	}
}

// Size returns the number of distinct cached values, for tests and
// diagnostics.
func (vc *valueCache) Size() int { return len(vc.entries) }
