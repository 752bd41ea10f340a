package datalink

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/linkage"
	"repro/internal/obs"
)

// viewFixture builds a pipeline over a small typed corpus.
func viewFixture(t *testing.T) (*Pipeline, LinkerConfig) {
	t.Helper()
	og := NewGraph()
	cls := NewIRI("http://ex.org/onto#Resistor")
	og.Add(T(cls, RDFType, OWLClass))
	ol, err := OntologyFromGraph(og)
	if err != nil {
		t.Fatal(err)
	}
	pn := NewIRI("http://ex.org/pn")
	se, sl := NewGraph(), NewGraph()
	var links []Link
	for i := 0; i < 15; i++ {
		e := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		l := NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		se.Add(T(e, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", i))))
		sl.Add(T(l, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", i))))
		sl.Add(T(l, RDFType, cls))
		links = append(links, Link{External: e, Local: l})
	}
	p, err := NewPipeline(LearnerConfig{SupportThreshold: 0.01}, TrainingSet{Links: links}, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkerConfig{
		Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: Levenshtein, Weight: 1}},
		Threshold:   0.5,
	}
	return p, cfg
}

// TestQueryViewFrozen: a view keeps answering from its snapshot while
// the live pipeline mutates, and a fresh view sees the mutation.
func TestQueryViewFrozen(t *testing.T) {
	p, cfg := viewFixture(t)
	item := NewIRI("http://ex.org/e/3")
	view := p.Snapshot()

	want, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[item]) == 0 {
		t.Fatal("view query returned no matches")
	}

	// Live mutation: a new local item that matches e/3 exactly, plus the
	// incremental maintenance a caller performs.
	pn := NewIRI("http://ex.org/pn")
	cls := NewIRI("http://ex.org/onto#Resistor")
	newLoc := NewIRI("http://ex.org/l/new")
	p.Local().Add(T(newLoc, pn, NewLiteral("RES-0003-X")))
	p.Local().Add(T(newLoc, RDFType, cls))
	p.ApplyPatches([]Patch{{Side: LocalSide, Items: []Term{newLoc}}})

	// The old view must not see it.
	got, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen view drifted after live mutation:\n got %+v\nwant %+v", got, want)
	}
	for _, m := range got[item] {
		if m.Local == newLoc {
			t.Fatal("frozen view returned a post-snapshot item")
		}
	}

	// A fresh view must.
	fresh, err := p.Snapshot().LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range fresh[item] {
		found = found || m.Local == newLoc
	}
	if !found {
		t.Fatalf("fresh view missed the upserted item: %+v", fresh[item])
	}
}

// TestQueryViewMatchesPipeline: with no interleaved mutation, a view
// scoring with the pipeline's published engine answers exactly like a
// view that compiles a request-scoped engine from its frozen graphs.
func TestQueryViewMatchesPipeline(t *testing.T) {
	p, cfg := viewFixture(t)
	items := p.External().AllSubjects()
	scoped := p.Snapshot()
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	published := p.Snapshot()
	if published.eng == nil || scoped.eng != nil {
		t.Fatal("fixture does not exercise both scoring paths")
	}
	want, err := scoped.LinkTopK(context.Background(), items, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := published.LinkTopK(context.Background(), items, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("published engine's results differ from a request-scoped engine's")
	}
}

// TestQueryViewPinsScores pins every link answer to the one state its
// view published: changing a local item's part number and patching it
// on the live pipeline must not change the scores an earlier view
// returns, even though the pipeline's engine is patched in place. A
// fresh view sees the change.
func TestQueryViewPinsScores(t *testing.T) {
	p, cfg := viewFixture(t)
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	item := NewIRI("http://ex.org/e/3")
	l3 := NewIRI("http://ex.org/l/3")
	pn := NewIRI("http://ex.org/pn")
	view := p.Snapshot()
	want, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[item]) == 0 || want[item][0].Local != l3 || want[item][0].Score != 1 {
		t.Fatalf("fixture: want l/3 at score 1 first, got %+v", want[item])
	}

	for _, o := range p.Local().Objects(l3, pn) {
		p.Local().Remove(T(l3, pn, o))
	}
	p.Local().Add(T(l3, pn, NewLiteral("ZZZ-9999-Q")))
	p.ApplyPatches([]Patch{{Side: LocalSide, Items: []Term{l3}}})

	got, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view's scores drifted after a live patch:\n got %+v\nwant %+v", got, want)
	}
	fresh, err := p.Snapshot().LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fresh[item] {
		if m.Local == l3 && m.Score == 1 {
			t.Fatalf("fresh view still scores the old part number: %+v", fresh[item])
		}
	}
}

// TestQueryViewsUnderUpdate runs readers against published views while
// the writer keeps changing, adding and deleting local items, changing
// external items, and patching them. Each answer must equal the answer
// of a linkage.New engine built on that view's own frozen graphs, over
// the view's own candidates. Run under -race it is also the proof that
// nothing a view reads is written after it was published.
func TestQueryViewsUnderUpdate(t *testing.T) {
	p, cfg := viewFixture(t)
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	pn := NewIRI("http://ex.org/pn")
	cls := NewIRI("http://ex.org/onto#Resistor")
	items := p.External().AllSubjects()
	var cur atomic.Pointer[QueryView]
	cur.Store(p.Snapshot())

	const rounds = 30
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			loc := NewIRI(fmt.Sprintf("http://ex.org/l/%d", r%20))
			for _, tr := range p.Local().Find(loc, Term{}, Term{}) {
				p.Local().Remove(tr)
			}
			if r%5 != 2 { // else the item is deleted
				p.Local().Add(T(loc, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", (r*7)%15))))
				p.Local().Add(T(loc, RDFType, cls))
			}
			ext := NewIRI(fmt.Sprintf("http://ex.org/e/%d", (r*3)%15))
			for _, o := range p.External().Objects(ext, pn) {
				p.External().Remove(T(ext, pn, o))
			}
			p.External().Add(T(ext, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", (r*11)%15))))
			p.ApplyPatches([]Patch{
				{Side: LocalSide, Items: []Term{loc}},
				{Side: ExternalSide, Items: []Term{ext}},
			})
			cur.Store(p.Snapshot())
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := cur.Load()
				got, err := v.LinkTopK(context.Background(), items, cfg, 3)
				if err != nil {
					t.Error(err)
					return
				}
				ref, err := linkage.New(cfg, v.External(), v.Local())
				if err != nil {
					t.Error(err)
					return
				}
				for _, item := range items {
					var locs []Term
					for _, pr := range core.CandidatePairs(v.ReducedSpace(item), v.Instances()) {
						locs = append(locs, pr[1])
					}
					if want := ref.TopK(item, locs, 3); !reflect.DeepEqual(got[item], want) {
						t.Errorf("%s: view answered %+v, a rebuild on its graphs %+v", item.Value, got[item], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryViewConfigError: invalid configs surface as ErrLinkerConfig,
// the sentinel HTTP handlers classify as client errors.
func TestQueryViewConfigError(t *testing.T) {
	p, cfg := viewFixture(t)
	cfg.Threshold = 3
	_, err := p.Snapshot().LinkTopK(context.Background(), p.External().AllSubjects(), cfg, 1)
	if err == nil {
		t.Fatal("threshold 3 accepted")
	}
	if !errors.Is(err, ErrLinkerConfig) {
		t.Fatalf("error %v does not wrap ErrLinkerConfig", err)
	}
}

// TestLinkTopKRepeatedItem: a request that names an item more than once
// answers and counts as one that names it once, so the repeats are not
// expanded or scored again.
func TestLinkTopKRepeatedItem(t *testing.T) {
	p, cfg := viewFixture(t)
	view := p.Snapshot()
	e3, e5 := NewIRI("http://ex.org/e/3"), NewIRI("http://ex.org/e/5")
	link := func(items ...Term) (map[Term][]Match, []obs.Count) {
		t.Helper()
		tr := obs.NewTrace(nil)
		got, err := view.LinkTopK(obs.WithTrace(context.Background(), tr), items, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return got, tr.Counts()
	}
	for _, tc := range []struct{ repeated, once []Term }{
		{[]Term{e3, e3, e3}, []Term{e3}},
		{[]Term{e3, e5, e3, e5}, []Term{e3, e5}},
	} {
		want, wantCounts := link(tc.once...)
		got, gotCounts := link(tc.repeated...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("LinkTopK(%v) = %v, want %v", tc.repeated, got, want)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("LinkTopK(%v) counted %v, want %v", tc.repeated, gotCounts, wantCounts)
		}
	}
}
