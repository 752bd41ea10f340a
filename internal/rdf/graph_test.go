package rdf

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func ex(local string) Term { return NewIRI("http://example.org/" + local) }

func sampleGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	triples := []Triple{
		T(ex("alice"), ex("knows"), ex("bob")),
		T(ex("alice"), ex("knows"), ex("carol")),
		T(ex("alice"), ex("name"), NewLiteral("Alice")),
		T(ex("bob"), ex("name"), NewLiteral("Bob")),
		T(ex("bob"), TypeTerm, ex("Person")),
		T(ex("alice"), TypeTerm, ex("Person")),
		T(ex("carol"), TypeTerm, ex("Robot")),
	}
	for _, tr := range triples {
		if !g.Add(tr) {
			t.Fatalf("Add(%v) returned false for fresh triple", tr)
		}
	}
	return g
}

func TestGraphAddDuplicate(t *testing.T) {
	g := NewGraph()
	tr := T(ex("s"), ex("p"), NewLiteral("o"))
	if !g.Add(tr) {
		t.Fatal("first Add returned false")
	}
	if g.Add(tr) {
		t.Fatal("duplicate Add returned true")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestGraphAddRejectsInvalid(t *testing.T) {
	g := NewGraph()
	if g.Add(T(NewLiteral("bad"), ex("p"), ex("o"))) {
		t.Error("Add accepted literal subject")
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d after rejected Add, want 0", g.Len())
	}
}

func TestGraphRemove(t *testing.T) {
	g := sampleGraph(t)
	tr := T(ex("alice"), ex("knows"), ex("bob"))
	n := g.Len()
	if !g.Remove(tr) {
		t.Fatal("Remove returned false for present triple")
	}
	if g.Has(tr) {
		t.Error("triple still present after Remove")
	}
	if g.Len() != n-1 {
		t.Errorf("Len = %d, want %d", g.Len(), n-1)
	}
	if g.Remove(tr) {
		t.Error("second Remove returned true")
	}
	// Index consistency: bob must still be reachable via other triples.
	if got := len(g.Find(ex("bob"), Term{}, Term{})); got != 2 {
		t.Errorf("bob triple count = %d, want 2", got)
	}
}

func TestGraphMatchPatterns(t *testing.T) {
	g := sampleGraph(t)
	tests := []struct {
		name    string
		s, p, o Term
		want    int
	}{
		{"fully bound hit", ex("alice"), ex("knows"), ex("bob"), 1},
		{"fully bound miss", ex("alice"), ex("knows"), ex("dave"), 0},
		{"s+p", ex("alice"), ex("knows"), Term{}, 2},
		{"s+o", ex("alice"), Term{}, ex("bob"), 1},
		{"p+o", Term{}, TypeTerm, ex("Person"), 2},
		{"p bound", Term{}, TypeTerm, Term{}, 3},
		{"o bound", Term{}, Term{}, ex("Person"), 2},
		{"s bound", ex("alice"), Term{}, Term{}, 4},
		{"all wildcards", Term{}, Term{}, Term{}, 7},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(g.Find(tc.s, tc.p, tc.o)); got != tc.want {
				t.Errorf("Find(%v,%v,%v) = %d results, want %d", tc.s, tc.p, tc.o, got, tc.want)
			}
		})
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := sampleGraph(t)
	calls := 0
	g.Match(Term{}, Term{}, Term{}, func(Triple) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("fn called %d times, want 3 (early stop)", calls)
	}
}

func TestGraphObjectsSubjects(t *testing.T) {
	g := sampleGraph(t)
	objs := g.Objects(ex("alice"), ex("knows"))
	if len(objs) != 2 || objs[0] != ex("bob") || objs[1] != ex("carol") {
		t.Errorf("Objects = %v, want [bob carol]", objs)
	}
	subjs := g.Subjects(TypeTerm, ex("Person"))
	if len(subjs) != 2 || subjs[0] != ex("alice") || subjs[1] != ex("bob") {
		t.Errorf("Subjects = %v, want [alice bob]", subjs)
	}
}

func TestGraphFirstObjectDeterministic(t *testing.T) {
	g := sampleGraph(t)
	for i := 0; i < 10; i++ {
		o, ok := g.FirstObject(ex("alice"), ex("knows"))
		if !ok || o != ex("bob") {
			t.Fatalf("FirstObject = %v,%v want bob,true", o, ok)
		}
	}
	if _, ok := g.FirstObject(ex("alice"), ex("none")); ok {
		t.Error("FirstObject reported ok for absent property")
	}
}

// predicates returns the distinct predicates of g, sorted.
func predicates(g *Graph) []Term {
	seen := map[Term]bool{}
	var out []Term
	g.Match(Term{}, Term{}, Term{}, func(t Triple) bool {
		if !seen[t.P] {
			seen[t.P] = true
			out = append(out, t.P)
		}
		return true
	})
	slices.SortFunc(out, Term.Compare)
	return out
}

func TestGraphPredicatesAllSubjects(t *testing.T) {
	g := sampleGraph(t)
	if got := len(predicates(g)); got != 3 {
		t.Errorf("Predicates count = %d, want 3", got)
	}
	if got := len(g.AllSubjects()); got != 3 {
		t.Errorf("AllSubjects count = %d, want 3", got)
	}
}

func TestGraphMergeClone(t *testing.T) {
	g := sampleGraph(t)
	h := NewGraph()
	h.Add(T(ex("dave"), TypeTerm, ex("Person")))
	h.Add(T(ex("alice"), TypeTerm, ex("Person"))) // duplicate with g
	added := g.Merge(h)
	if added != 1 {
		t.Errorf("Merge added = %d, want 1", added)
	}
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	c.Add(T(ex("eve"), TypeTerm, ex("Person")))
	if g.Has(T(ex("eve"), TypeTerm, ex("Person"))) {
		t.Error("mutation of clone leaked into original")
	}
}

func TestGraphTypesInstances(t *testing.T) {
	g := sampleGraph(t)
	if types := g.TypesOf(ex("alice")); len(types) != 1 || types[0] != ex("Person") {
		t.Errorf("TypesOf(alice) = %v", types)
	}
	if insts := g.Subjects(TypeTerm, ex("Robot")); len(insts) != 1 || insts[0] != ex("carol") {
		t.Errorf("Subjects(rdf:type, Robot) = %v", insts)
	}
}

// Property: for any sequence of adds, Len equals the number of distinct
// valid triples, and every added triple is found by Has and full Match.
func TestGraphAddInvariants(t *testing.T) {
	f := func(ids []uint8) bool {
		g := NewGraph()
		seen := map[Triple]struct{}{}
		for _, id := range ids {
			tr := T(
				ex(fmt.Sprintf("s%d", id%7)),
				ex(fmt.Sprintf("p%d", (id/7)%5)),
				NewLiteral(fmt.Sprintf("o%d", id%11)),
			)
			g.Add(tr)
			seen[tr] = struct{}{}
		}
		if g.Len() != len(seen) {
			return false
		}
		for tr := range seen {
			if !g.Has(tr) {
				return false
			}
		}
		return len(g.Triples()) == len(seen)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: removing everything that was added leaves an empty graph with
// empty indexes (no dangling index entries observable through queries).
func TestGraphRemoveInvariants(t *testing.T) {
	f := func(ids []uint8) bool {
		g := NewGraph()
		var triples []Triple
		for _, id := range ids {
			tr := T(
				ex(fmt.Sprintf("s%d", id%5)),
				ex(fmt.Sprintf("p%d", id%3)),
				NewLiteral(fmt.Sprintf("o%d", id%4)),
			)
			g.Add(tr)
			triples = append(triples, tr)
		}
		for _, tr := range triples {
			g.Remove(tr)
		}
		if g.Len() != 0 {
			return false
		}
		count := 0
		g.Match(Term{}, Term{}, Term{}, func(Triple) bool { count++; return true })
		return count == 0 && len(predicates(g)) == 0 && len(g.AllSubjects()) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestGraphVersion(t *testing.T) {
	g := NewGraph()
	if g.Version() != 0 {
		t.Fatalf("fresh graph version = %d", g.Version())
	}
	tr := T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLiteral("v"))
	g.Add(tr)
	v1 := g.Version()
	if v1 == 0 {
		t.Error("Add did not bump version")
	}
	if g.Add(tr); g.Version() != v1 {
		t.Error("duplicate Add bumped version")
	}
	if g.Remove(T(NewIRI("http://ex.org/x"), NewIRI("http://ex.org/p"), NewLiteral("v"))); g.Version() != v1 {
		t.Error("no-op Remove bumped version")
	}
	if g.Remove(tr); g.Version() == v1 {
		t.Error("Remove did not bump version")
	}
}
