package linkage

import (
	"hash/maphash"
	"sort"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

// indexedValue is one literal value of an item under a comparator
// property: the lexical form plus its derivations (rune length, token
// list, token set, prepared pattern).
type indexedValue struct {
	value string
	entry *cacheEntry
}

// compiledComparator is one configured comparator with its measure
// capabilities resolved, so scoring a pair is pure in-memory slice work:
// no graph access, no re-tokenizing.
type compiledComparator struct {
	weight  float64
	measure similarity.Measure
	// slot is this comparator's index in the engine's comparator list,
	// addressing its local index, its values in a resolved external item
	// and its prepared patterns in an entry.
	slot    int
	extProp rdf.Term
	locProp rdf.Term
	// bounded is non-nil when the measure can bound its score from value
	// lengths alone; the engine then skips value pairs whose bound cannot
	// beat the current best.
	bounded similarity.LengthBounded
	// tokens is non-nil when the measure scores pre-tokenized values.
	tokens similarity.Tokenized
	// tokenSets is non-nil when the measure scores prebuilt token sets;
	// preferred over tokens in the hot loop.
	tokenSets similarity.TokenSetScored
	// prepared is non-nil when the measure can precompile one side of a
	// comparison (Myers pattern bitmaps, TF-IDF vectors); the hot loop
	// then scores prepared against prepared, the fastest path of all.
	prepared similarity.PreparedMeasure
}

// compileComparators resolves every comparator's measure capabilities.
func compileComparators(cfg Config) []compiledComparator {
	comps := make([]compiledComparator, len(cfg.Comparators))
	for i, cmp := range cfg.Comparators {
		cc := compiledComparator{
			weight:  cmp.Weight,
			measure: cmp.Measure,
			slot:    i,
			extProp: cmp.ExternalProperty,
			locProp: cmp.LocalProperty,
		}
		cc.bounded, _ = cmp.Measure.(similarity.LengthBounded)
		cc.tokens, _ = cmp.Measure.(similarity.Tokenized)
		if cc.tokens != nil {
			// Token sets are derived from the token lists, so a measure
			// must be Tokenized for the set path to have data.
			cc.tokenSets, _ = cmp.Measure.(similarity.TokenSetScored)
		}
		cc.prepared, _ = cmp.Measure.(similarity.PreparedMeasure)
		comps[i] = cc
	}
	return comps
}

// mutToken is an ownership marker compared by pointer identity, as in
// rdf.Graph: a shard may be written in place only while it is owned by
// the writer's current token. It must not be zero-sized, or distinct
// tokens could share an address.
type mutToken struct{ _ byte }

// localShards splits each comparator's local value index so that the
// one map copy a write pays after a snapshot covers a small slice of the
// catalog: about 120 items of a 30,000-item catalog. Must be a power of
// two.
const localShards = 256

// localShard is one slice of a local value index: item -> its values,
// owned by the token that may write it.
type localShard struct {
	owner *mutToken
	m     map[rdf.Term][]indexedValue
}

// localIndex is the copy-on-write index of one comparator's local
// values. A snapshot copies the shard headers; the writer then copies a
// shard's map before its first write to it, so a snapshot's shards are
// never written again. Every comparator's index shards items alike, so
// a pair hashes its local item once.
type localIndex [localShards]localShard

var shardSeed = maphash.MakeSeed()

func shardOf(item rdf.Term) int {
	return int(maphash.String(shardSeed, item.Value) & (localShards - 1))
}

// set installs item's values in shard sh (nil drops the item) and
// returns the values it replaced, copying the shard first if tok does
// not own it.
func (li *localIndex) set(tok *mutToken, sh int, item rdf.Term, vals []indexedValue) []indexedValue {
	s := &li[sh]
	if s.owner != tok {
		m := make(map[rdf.Term][]indexedValue, len(s.m)+1)
		for k, v := range s.m {
			m[k] = v
		}
		s.m, s.owner = m, tok
	}
	old := s.m[item]
	if vals == nil {
		delete(s.m, item)
	} else {
		s.m[item] = vals
	}
	return old
}

// buildLocalIndex indexes every local item's literal values under one
// comparator's local property, in one pass over the graph's predicate
// index.
func buildLocalIndex(c *compiledComparator, sl *rdf.Graph, cache *valueCache, tok *mutToken) *localIndex {
	byItem := map[rdf.Term][]rdf.Term{}
	if sl != nil {
		sl.Match(rdf.Term{}, c.locProp, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				byItem[t.S] = append(byItem[t.S], t.O)
			}
			return true
		})
	}
	li := new(localIndex)
	for i := range li {
		li[i] = localShard{owner: tok, m: make(map[rdf.Term][]indexedValue, len(byItem)/localShards)}
	}
	for item, objs := range byItem {
		sortTerms(objs)
		li[shardOf(item)].m[item] = acquireValues(objs, cache, c.slot)
	}
	return li
}

// acquireValues resolves sorted value terms against the writer's cache,
// taking one reference per value.
func acquireValues(objs []rdf.Term, cache *valueCache, slot int) []indexedValue {
	vals := make([]indexedValue, len(objs))
	for i, o := range objs {
		vals[i] = indexedValue{value: o.Value, entry: cache.acquire(o.Value, slot)}
	}
	return vals
}

// literals returns item's literal values under prop in g, ordered by
// rdf.Term.Compare.
func literals(g *rdf.Graph, item, prop rdf.Term) []rdf.Term {
	if g == nil {
		return nil
	}
	var objs []rdf.Term
	g.Match(item, prop, rdf.Term{}, func(t rdf.Triple) bool {
		if t.O.IsLiteral() {
			objs = append(objs, t.O)
		}
		return true
	})
	sortTerms(objs)
	return objs
}

func sortTerms(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// resolve derives an external item's values per comparator slot from the
// index's external graph. The derivations are built per call and never
// enter the writer's cache, so readers of a snapshot write nothing they
// share.
func (ix *index) resolve(ext rdf.Term) [][]indexedValue {
	vals := make([][]indexedValue, len(ix.comps))
	for slot := range ix.comps {
		objs := literals(ix.se, ext, ix.comps[slot].extProp)
		if len(objs) == 0 {
			continue
		}
		col := make([]indexedValue, len(objs))
		for i, o := range objs {
			e := ix.derive.entry(o.Value)
			ix.derive.prepare(e, o.Value, slot)
			col[i] = indexedValue{value: o.Value, entry: e}
		}
		vals[slot] = col
	}
	return vals
}
