package linkage

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

// cacheOf digs out an engine's value cache for white-box assertions.
func cacheOf(e *Engine) *valueCache { return e.ix.cache }

// refTotal sums the live reference counts, for leak checks.
func refTotal(vc *valueCache) int {
	n := 0
	for _, e := range vc.entries {
		n += e.refs
	}
	return n
}

// TestValueCacheSharesAcrossComparators pins the cache's reason to
// exist: two comparators over the same property (different measures)
// and the same value on many local items produce ONE cache entry per
// distinct value string, not one per (comparator, item). External values
// never enter the cache: they are derived per query.
func TestValueCacheSharesAcrossComparators(t *testing.T) {
	se, sl := rdf.NewGraph(), rdf.NewGraph()
	// Three external and three local items all carrying the same two
	// values under pn, also referenced by the label comparator.
	for i := 0; i < 3; i++ {
		e := rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		l := rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		se.Add(rdf.T(e, pn, rdf.NewLiteral("SHARED-VALUE")))
		sl.Add(rdf.T(l, pn, rdf.NewLiteral("SHARED-VALUE")))
		se.Add(rdf.T(e, label, rdf.NewLiteral("common label")))
		sl.Add(rdf.T(l, label, rdf.NewLiteral("common label")))
	}
	cfg := Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 1},
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Jaccard{}, Weight: 1},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Damerau{}, Weight: 1},
		},
		Threshold: 0.1,
	}
	eng, err := New(cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	vc := cacheOf(eng)
	if got, want := vc.Size(), 2; got != want {
		t.Fatalf("cache holds %d entries, want %d (one per distinct value)", got, want)
	}
	// pn is indexed by two comparators over 3 local items, label by one
	// over 3: 6 + 3 references.
	if got, want := refTotal(vc), 9; got != want {
		t.Fatalf("cache holds %d references, want %d", got, want)
	}
	// The shared entry carries every derivation any comparator needs:
	// tokens and sets (Jaccard) plus prepared patterns in the slots of
	// the two edit-distance comparators.
	e := vc.entries["SHARED-VALUE"]
	if e == nil || e.tokenSet == nil || e.tokens == nil {
		t.Fatalf("shared entry missing token derivations: %+v", e)
	}
	if e.prepared == nil || e.prepared[0] == nil || e.prepared[1] != nil {
		t.Fatalf("prepared slots wrong: want slot 0 set (levenshtein), slot 1 empty (jaccard)")
	}
}

// TestValueCacheRefcountChurn drives add/change/remove churn through
// ApplyPatches, with snapshots taken in between, and asserts the cache
// never leaks: after every step the entry count equals the number of
// distinct indexed values, and references match the indexed values
// exactly; after removing everything the cache is empty.
func TestValueCacheRefcountChurn(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(97, 40, 30)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	vc := cacheOf(eng)

	verify := func(step string) {
		t.Helper()
		// Distinct indexed values and total references, recounted from
		// the index itself.
		want := map[string]int{}
		refs := 0
		for _, li := range eng.ix.loc {
			for _, s := range li {
				for _, vals := range s.m {
					for _, v := range vals {
						want[v.value]++
						refs++
					}
				}
			}
		}
		if got := vc.Size(); got != len(want) {
			t.Fatalf("%s: cache holds %d entries, index references %d distinct values", step, got, len(want))
		}
		if got := refTotal(vc); got != refs {
			t.Fatalf("%s: cache holds %d refs, index holds %d values", step, got, refs)
		}
		rebuildEqual(t, eng, se, sl, pairs)
	}
	verify("fresh")

	// Change values in place, one patch per item.
	for i := 0; i < 10; i++ {
		item := rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		for _, o := range sl.Objects(item, pn) {
			sl.Remove(rdf.T(item, pn, o))
		}
		sl.Add(rdf.T(item, pn, rdf.NewLiteral(fmt.Sprintf("CHURN-%d", i%3))))
		upsertLocal(eng, item)
		if i%4 == 0 {
			eng.Snapshot()
		}
	}
	verify("after upsert churn")

	// Batched mixed mutation.
	var patchItems []rdf.Term
	for i := 10; i < 20; i++ {
		item := rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		for _, o := range sl.Objects(item, pn) {
			sl.Remove(rdf.T(item, pn, o))
		}
		sl.Add(rdf.T(item, pn, rdf.NewLiteral("BATCHED")))
		patchItems = append(patchItems, item)
	}
	eng.ApplyPatches([]IndexPatch{
		{Side: LocalSide, Items: patchItems},
		{Side: LocalSide, Remove: true, Items: patchItems[:3]},
	})
	verify("after patches")

	// Remove every local item: the cache must drain to zero.
	eng.Snapshot()
	var loc []rdf.Term
	for i := 0; i < 30; i++ {
		loc = append(loc, rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i)))
	}
	eng.ApplyPatches([]IndexPatch{{Side: LocalSide, Remove: true, Items: loc}})
	if got := vc.Size(); got != 0 {
		t.Fatalf("cache holds %d entries after removing every item, want 0", got)
	}
	if got := refTotal(vc); got != 0 {
		t.Fatalf("cache holds %d refs after removing every item, want 0", got)
	}
}

// TestPreparedPathMatchesPlainMeasures asserts the engine's prepared
// fast path is observationally identical to scoring with the plain
// measures through a Func wrapper (which can never be prepared).
func TestPreparedPathMatchesPlainMeasures(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(13, 50, 35)
	fast := Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Damerau{}, Weight: 1},
		},
		Threshold: 0.1,
	}
	slow := fast
	slow.Comparators = []Comparator{
		{ExternalProperty: pn, LocalProperty: pn,
			Measure: similarity.Func{F: similarity.Levenshtein{}.Similarity, ID: "lev"}, Weight: 2},
		{ExternalProperty: label, LocalProperty: label,
			Measure: similarity.Func{F: similarity.Damerau{}.Similarity, ID: "dam"}, Weight: 1},
	}
	fe, err := New(fast, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	se2, sl2 := se.Snapshot(), sl.Snapshot()
	we, err := New(slow, se2, sl2)
	if err != nil {
		t.Fatal(err)
	}
	fm, wm := fe.ScorePairs(pairs), we.ScorePairs(pairs)
	if len(fm) != len(wm) {
		t.Fatalf("prepared path found %d matches, plain %d", len(fm), len(wm))
	}
	for i := range fm {
		if fm[i] != wm[i] {
			t.Fatalf("match %d differs: prepared %+v, plain %+v", i, fm[i], wm[i])
		}
	}
}
