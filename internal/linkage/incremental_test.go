package linkage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

func incrementalConfig() Config {
	return Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Jaccard{}, Weight: 1},
		},
		Threshold: 0.2,
		Workers:   2,
	}
}

// rebuildEqual asserts that the engine scores every pair exactly like a
// fresh engine built from the given graphs.
func rebuildEqual(t *testing.T, eng *Engine, se, sl *rdf.Graph, pairs [][2]rdf.Term) {
	t.Helper()
	fresh, err := New(eng.cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.ScorePairs(pairs), fresh.ScorePairs(pairs); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine diverges from full rebuild: %d vs %d matches", len(got), len(want))
	}
}

// upsertLocal patches local items into the writer's engine after their
// triples changed.
func upsertLocal(eng *Engine, items ...rdf.Term) {
	eng.ApplyPatches([]IndexPatch{{Side: LocalSide, Items: items}})
}

// TestUpsertMatchesRebuild pins the core incremental-maintenance
// guarantee: after any local graph mutation followed by a patch of the
// touched items, the engine is indistinguishable from a full
// linkage.New rebuild — for added items, changed values, multi-valued
// properties and deletions — and an external mutation needs no patch.
func TestUpsertMatchesRebuild(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(51, 60, 40)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}

	// Change an existing external item's part number (remove + add): the
	// next query resolves the item from the graph.
	e0 := rdf.NewIRI("http://ex.org/e/0")
	for _, o := range se.Objects(e0, pn) {
		se.Remove(rdf.T(e0, pn, o))
	}
	se.Add(rdf.T(e0, pn, rdf.NewLiteral("CHANGED-0815")))
	rebuildEqual(t, eng, se, sl, pairs)

	// Add a brand-new local item with both properties, multi-valued.
	lNew := rdf.NewIRI("http://ex.org/l/new")
	sl.Add(rdf.T(lNew, pn, rdf.NewLiteral("CHANGED-0815")))
	sl.Add(rdf.T(lNew, pn, rdf.NewLiteral("CHANGED-0816")))
	sl.Add(rdf.T(lNew, label, rdf.NewLiteral("changed item label")))
	upsertLocal(eng, lNew)
	augmented := append(append([][2]rdf.Term{}, pairs...), [2]rdf.Term{e0, lNew})
	rebuildEqual(t, eng, se, sl, augmented)
	// pn matches exactly (weight 2), labels differ (weight 1): score 2/3.
	if m := eng.TopK(e0, []rdf.Term{lNew}, 1); len(m) != 1 || m[0].Score < 0.6 {
		t.Fatalf("upserted pair must score high, got %v", m)
	}

	// Delete a local item's triples entirely; the patch must drop it.
	l0 := rdf.NewIRI("http://ex.org/l/0")
	for _, tr := range sl.Find(l0, rdf.Term{}, rdf.Term{}) {
		sl.Remove(tr)
	}
	upsertLocal(eng, l0)
	rebuildEqual(t, eng, se, sl, augmented)

	// Non-literal objects must be ignored exactly like at construction.
	se.Add(rdf.T(e0, pn, rdf.NewIRI("http://ex.org/not-a-literal")))
	sl.Add(rdf.T(lNew, pn, rdf.NewIRI("http://ex.org/not-a-literal")))
	upsertLocal(eng, lNew)
	rebuildEqual(t, eng, se, sl, augmented)
}

// TestNewWithIDsNumbersNothing: an engine over a shared writer's table
// indexes only the items the table knows. It gives an item the table's
// owner has not numbered no ID, at build or at a patch, and picks the
// item's values up at the first patch after the owner numbers it.
func TestNewWithIDsNumbersNothing(t *testing.T) {
	se, sl := testGraphs(t)
	ids := core.NewIDTable()
	l1, lNew := item("l", "1"), item("l", "new")
	ids.Assign(l1)
	eng, err := NewWithIDs(defaultConfig(), se, sl, ids)
	if err != nil {
		t.Fatal(err)
	}
	// e/1's own values: lNew scores 1.
	sl.Add(rdf.T(lNew, pn, rdf.NewLiteral("CRCW0805-100")))
	sl.Add(rdf.T(lNew, label, rdf.NewLiteral("chip resistor")))
	upsertLocal(eng, lNew)
	if n := ids.Len(); n != 1 {
		t.Fatalf("the engine numbered %d items, want only the owner's 1", n)
	}
	id := ids.Assign(lNew)
	upsertLocal(eng, lNew)
	ms, _ := eng.Snapshot().TopKIDs(item("e", "1"), core.IDSet{1<<0 | 1<<id}, 0)
	if len(ms) != 2 || ms[0].Local != lNew {
		t.Fatalf("TopKIDs = %+v, want l/new first, then l/1", ms)
	}
}

// TestRemoveDropsItems checks a local remove patch without graph
// mutation (soft delete) and its equivalence to scoring an absent item.
func TestRemoveDropsItems(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(52, 30, 20)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(eng.cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	e0 := rdf.NewIRI("http://ex.org/e/0")
	l0 := rdf.NewIRI("http://ex.org/l/0")
	eng.ApplyPatches([]IndexPatch{{Side: LocalSide, Remove: true, Items: []rdf.Term{l0}}})
	if got := score(t, eng, e0, l0); got != 0 {
		t.Fatalf("score of a removed item = %v, want 0", got)
	}
	for _, p := range pairs {
		if p[1] == l0 {
			continue
		}
		// Untouched pairs must be unaffected.
		if got, want := score(t, eng, p[0], p[1]), score(t, fresh, p[0], p[1]); got != want {
			t.Fatalf("remove disturbed unrelated pair %v: %v != %v", p, got, want)
		}
	}
	// Re-adding via an upsert patch restores the item from the intact
	// graph.
	upsertLocal(eng, l0)
	if got, want := score(t, eng, e0, l0), score(t, fresh, e0, l0); got != want {
		t.Fatalf("upsert after remove: %v != %v", got, want)
	}
}

// TestUpsertSharedWithOptions checks what a later upsert shares with an
// engine derived via WithOptions: nothing. The derived engine reads the
// frozen index of the snapshot it was derived from, so it scores like
// the base at derive time, and a patch reaches only the writer's engine.
func TestUpsertSharedWithOptions(t *testing.T) {
	se, sl, _, _ := seededGraphs(53, 10, 10)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	e0 := rdf.NewIRI("http://ex.org/e/0")
	l0 := rdf.NewIRI("http://ex.org/l/0")
	before := score(t, eng, e0, l0)
	derived, err := eng.WithOptions(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if derived.ix.mut != nil {
		t.Fatal("WithOptions does not share a frozen index")
	}
	for _, o := range sl.Objects(l0, pn) {
		sl.Remove(rdf.T(l0, pn, o))
	}
	sl.Add(rdf.T(l0, pn, rdf.NewLiteral("SHARED-1")))
	upsertLocal(eng, l0)
	for _, o := range se.Objects(e0, pn) {
		se.Remove(rdf.T(e0, pn, o))
	}
	se.Add(rdf.T(e0, pn, rdf.NewLiteral("SHARED-1")))
	if s := score(t, eng, e0, l0); s < 0.6 {
		t.Fatalf("writer's engine does not see the upsert: score %v", s)
	}
	if s := score(t, derived, e0, l0); s != before {
		t.Fatalf("derived engine saw a later upsert: score %v, was %v", s, before)
	}
}

// published is one point-in-time bundle a test writer hands to readers:
// an engine snapshot and the graph snapshots taken with it.
type published struct {
	eng    *Engine
	se, sl *rdf.Graph
}

// TestConcurrentQueryUnderUpdate runs readers against published engine
// snapshots while the writer keeps changing, adding and deleting local
// items, changing external items, and patching. Each reader's answer
// must equal the answer of a linkage.New engine built on the graph
// snapshots published with that engine snapshot. Under -race it is
// also the proof that nothing a snapshot reads is written afterwards,
// the length bands that TopKIDs walks included.
func TestConcurrentQueryUnderUpdate(t *testing.T) {
	se, sl, pairs, cands := seededGraphs(54, 80, 60)
	cfg := incrementalConfig()
	eng, err := New(cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[published]
	publish := func() {
		snap := eng.Snapshot()
		b := &published{eng: snap, se: se.Snapshot(), sl: sl.Snapshot()}
		if snap.ix.se != b.se {
			t.Error("engine snapshot resolves from a different external graph than the one published")
		}
		cur.Store(b)
	}
	publish()

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for r := 0; r < rounds; r++ {
			loc := rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", rng.Intn(70)))
			for _, tr := range sl.Find(loc, rdf.Term{}, rdf.Term{}) {
				sl.Remove(tr)
			}
			if r%7 != 3 { // else the item is deleted
				sl.Add(rdf.T(loc, pn, rdf.NewLiteral(fmt.Sprintf("LIVE-%d", r))))
			}
			ext := rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", rng.Intn(80)))
			for _, o := range se.Objects(ext, pn) {
				se.Remove(rdf.T(ext, pn, o))
			}
			se.Add(rdf.T(ext, pn, rdf.NewLiteral(fmt.Sprintf("LIVE-%d", r))))
			eng.ApplyPatches([]IndexPatch{
				{Side: LocalSide, Items: []rdf.Term{loc}},
				{Side: ExternalSide, Items: []rdf.Term{ext}},
			})
			publish()
		}
	}()

	check := func(op string, got, want any) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on a published snapshot differs from a rebuild on its graphs", op)
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := cur.Load()
				ref, err := New(cfg, b.se, b.sl)
				if err != nil {
					t.Error(err)
					return
				}
				switch r % 4 {
				case 0:
					check("best per item", linkBest(b.eng, cands), linkBest(ref, cands))
				case 1:
					check("ScorePairs", b.eng.ScorePairs(pairs), ref.ScorePairs(pairs))
				case 2:
					for ext, locs := range cands {
						check("TopK", b.eng.TopK(ext, locs, 3), ref.TopK(ext, locs, 3))
						break
					}
				default: // the band walk over every ID of the snapshot
					all := allIDs(b.eng)
					locs := b.eng.ix.ids.Items(all)
					for ext := range cands {
						got, _ := b.eng.TopKIDs(ext, all, 3)
						check("TopKIDs", got, ref.TopK(ext, locs, 3))
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the writer's index must equal a full
	// rebuild.
	rebuildEqual(t, eng, se, sl, pairs)
}
