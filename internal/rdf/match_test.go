package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// matchPools holds the terms random reference graphs draw from: few
// enough that patterns hit, varied enough to cover every term kind.
type matchPools struct {
	subjects, predicates, objects []Term
}

func newMatchPools() matchPools {
	var mp matchPools
	for i := 0; i < 12; i++ {
		mp.subjects = append(mp.subjects, NewIRI(fmt.Sprintf("http://ex.org/s%d", i)))
	}
	for i := 0; i < 4; i++ {
		mp.subjects = append(mp.subjects, NewBlank(fmt.Sprintf("b%d", i)))
	}
	// More predicates than b2FewMax, so busy subjects outgrow the
	// inline second level.
	for i := 0; i < 2*b2FewMax; i++ {
		mp.predicates = append(mp.predicates, NewIRI(fmt.Sprintf("http://ex.org/p%d", i)))
	}
	mp.predicates = append(mp.predicates, TypeTerm)
	for i := 0; i < 6; i++ {
		v := fmt.Sprintf("v%d", i)
		mp.objects = append(mp.objects,
			NewLiteral(v),
			NewLangLiteral(v, "en"),
			NewTypedLiteral(v, "http://www.w3.org/2001/XMLSchema#integer"),
			NewIRI("http://ex.org/o/"+v),
			NewBlank("o"+v),
		)
	}
	// Subjects double as objects, so a subject's own term can be probed
	// in every position.
	mp.objects = append(mp.objects, mp.subjects[:4]...)
	return mp
}

// randomTriple draws a triple; busy subjects and predicates come up more
// often, so some leaves pass fewMax objects.
func (mp matchPools) randomTriple(rng *rand.Rand) Triple {
	s := mp.subjects[rng.Intn(len(mp.subjects))]
	if rng.Intn(3) == 0 {
		s = mp.subjects[0]
	}
	p := mp.predicates[rng.Intn(len(mp.predicates))]
	if rng.Intn(3) == 0 {
		p = mp.predicates[0]
	}
	return T(s, p, mp.objects[rng.Intn(len(mp.objects))])
}

// refGraph is a graph with its expected triple set, kept apart from the
// graph's own index.
type refGraph struct {
	name string
	g    *Graph
	want map[Triple]bool
}

// mutate applies n random adds and removes to the graph and its
// expected set.
func (r *refGraph) mutate(t *testing.T, rng *rand.Rand, mp matchPools, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tr := mp.randomTriple(rng)
		if rng.Intn(3) == 0 {
			if got := r.g.Remove(tr); got != r.want[tr] {
				t.Fatalf("%s: Remove(%v) = %v, want %v", r.name, tr, got, r.want[tr])
			}
			delete(r.want, tr)
			continue
		}
		if got := r.g.Add(tr); got != !r.want[tr] {
			t.Fatalf("%s: Add(%v) = %v, want %v", r.name, tr, got, !r.want[tr])
		}
		r.want[tr] = true
	}
}

// check compares every read of r.g against a plain filter over its
// triples: all eight bound/unbound patterns through Find, with probes
// that hit and probes that miss, and Subjects, Objects, FirstObject and
// Has.
func (r *refGraph) check(t *testing.T, rng *rand.Rand, mp matchPools) {
	t.Helper()
	all := r.g.Triples()
	want := make([]Triple, 0, len(r.want))
	for tr := range r.want {
		want = append(want, tr)
	}
	slices.SortFunc(want, Triple.Compare)
	if !slices.Equal(all, want) {
		t.Fatalf("%s: Triples() = %v, want %v", r.name, all, want)
	}
	if r.g.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, want %d", r.name, r.g.Len(), len(want))
	}
	filter := func(s, p, o Term) []Triple {
		var out []Triple
		for _, tr := range all {
			if (s.IsZero() || tr.S == s) && (p.IsZero() || tr.P == p) && (o.IsZero() || tr.O == o) {
				out = append(out, tr)
			}
		}
		return out
	}
	// Probes: the terms of held triples (hits) and random pool terms
	// plus terms in no triple (mostly misses).
	missing := T(NewIRI("http://ex.org/nobody"), NewIRI("http://ex.org/nothing"), NewLiteral("none"))
	var probes []Triple
	for i := 0; i < 24 && len(all) > 0; i++ {
		probes = append(probes, all[rng.Intn(len(all))])
	}
	for i := 0; i < 12; i++ {
		probes = append(probes, mp.randomTriple(rng))
	}
	probes = append(probes, missing)
	for _, pr := range probes {
		for mask := 0; mask < 8; mask++ {
			var s, p, o Term
			if mask&4 != 0 {
				s = pr.S
			}
			if mask&2 != 0 {
				p = pr.P
			}
			if mask&1 != 0 {
				o = pr.O
			}
			got, exp := r.g.Find(s, p, o), filter(s, p, o)
			if !slices.Equal(got, exp) {
				t.Fatalf("%s: Find(%v, %v, %v) = %v, want %v", r.name, s, p, o, got, exp)
			}
		}
		if got, exp := r.g.Has(pr), r.want[pr]; got != exp {
			t.Fatalf("%s: Has(%v) = %v, want %v", r.name, pr, got, exp)
		}
		for _, o := range []Term{pr.O, {}} {
			var subjs []Term
			for _, tr := range filter(Term{}, pr.P, o) {
				subjs = append(subjs, tr.S)
			}
			slices.SortFunc(subjs, Term.Compare)
			subjs = slices.Compact(subjs)
			if got := r.g.Subjects(pr.P, o); !slices.Equal(got, subjs) {
				t.Fatalf("%s: Subjects(%v, %v) = %v, want %v", r.name, pr.P, o, got, subjs)
			}
		}
		var objs []Term
		for _, tr := range filter(pr.S, pr.P, Term{}) {
			objs = append(objs, tr.O)
		}
		if got := r.g.Objects(pr.S, pr.P); !slices.Equal(got, objs) {
			t.Fatalf("%s: Objects(%v, %v) = %v, want %v", r.name, pr.S, pr.P, got, objs)
		}
		first, ok := r.g.FirstObject(pr.S, pr.P)
		if ok != (len(objs) > 0) || (ok && first != objs[0]) {
			t.Fatalf("%s: FirstObject(%v, %v) = %v, %v, want the first of %v", r.name, pr.S, pr.P, first, ok, objs)
		}
	}
}

// TestGraphMatchReference checks every read of four graphs against a
// plain filter over their triples: a live graph, a snapshot of it after
// the live graph mutated further, a DecodeSnapshot copy of it, and that
// copy after it was mutated. So a decoded graph answers like a built
// one and can be mutated.
func TestGraphMatchReference(t *testing.T) {
	mp := newMatchPools()
	wide, big := false, false // a subject past b2FewMax predicates, a leaf past fewMax objects
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		live := &refGraph{name: fmt.Sprintf("trial %d live", trial), g: NewGraph(), want: map[Triple]bool{}}
		live.mutate(t, rng, mp, 40+rng.Intn(400))
		preds, leaves := map[Term]map[Term]bool{}, map[[2]Term]int{}
		for tr := range live.want {
			if preds[tr.S] == nil {
				preds[tr.S] = map[Term]bool{}
			}
			preds[tr.S][tr.P] = true
			leaves[[2]Term{tr.S, tr.P}]++
			wide = wide || len(preds[tr.S]) > b2FewMax
			big = big || leaves[[2]Term{tr.S, tr.P}] > fewMax
		}

		snap := &refGraph{name: fmt.Sprintf("trial %d snapshot", trial), g: live.g.Snapshot(), want: cloneSet(live.want)}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, live.g); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &refGraph{name: fmt.Sprintf("trial %d decoded", trial), g: dec, want: cloneSet(live.want)}
		live.mutate(t, rng, mp, 20+rng.Intn(200))

		for _, r := range []*refGraph{live, snap, decoded} {
			r.check(t, rng, mp)
		}
		decoded.name = fmt.Sprintf("trial %d decoded, mutated", trial)
		decoded.mutate(t, rng, mp, 20+rng.Intn(200))
		decoded.check(t, rng, mp)
	}
	if !wide || !big {
		t.Errorf("the random graphs never grew a subject past %d predicates (%v) or a leaf past %d objects (%v)", b2FewMax, wide, fewMax, big)
	}
}

func cloneSet(m map[Triple]bool) map[Triple]bool {
	c := make(map[Triple]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TestDecodedSnapshotConcurrentReaders runs readers of every pattern on
// a snapshot of a decoded graph while the decoded graph keeps mutating;
// under -race it shows that the decoder's graph shares nothing a
// mutation writes with the snapshot's readers.
func TestDecodedSnapshotConcurrentReaders(t *testing.T) {
	mp := newMatchPools()
	rng := rand.New(rand.NewSource(32))
	src := &refGraph{name: "source", g: NewGraph(), want: map[Triple]bool{}}
	src.mutate(t, rng, mp, 400)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, src.g); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := dec.Snapshot()
	probes := snap.Triples()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pr := probes[(w*50+i)%len(probes)]
				mask := (w + i) % 8
				var s, p, o Term
				if mask&4 != 0 {
					s = pr.S
				}
				if mask&2 != 0 {
					p = pr.P
				}
				if mask&1 != 0 {
					o = pr.O
				}
				snap.Match(s, p, o, func(tr Triple) bool {
					if !src.want[tr] {
						t.Errorf("worker %d: Match(%v, %v, %v) emitted %v, which the snapshot does not hold", w, s, p, o, tr)
						return false
					}
					return true
				})
				snap.Subjects(pr.P, pr.O)
			}
		}()
	}
	writer := &refGraph{name: "decoded", g: dec, want: cloneSet(src.want)}
	writer.mutate(t, rand.New(rand.NewSource(33)), mp, 400)
	wg.Wait()
	if got := snap.Triples(); !slices.Equal(got, src.g.Triples()) {
		t.Error("the snapshot of the decoded graph changed while the graph mutated")
	}
}
