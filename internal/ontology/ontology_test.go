package ontology

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func cls(name string) Class { return rdf.NewIRI("http://onto.example/" + name) }

// buildElectronics creates a small product hierarchy:
//
//	Product
//	├── Passive
//	│   ├── Resistor
//	│   │   ├── FixedFilmResistor
//	│   │   └── WirewoundResistor
//	│   └── Capacitor
//	│       ├── TantalumCapacitor
//	│       └── CeramicCapacitor
//	└── Active
//	    └── Diode
func buildElectronics(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	rel := [][2]string{
		{"Passive", "Product"},
		{"Active", "Product"},
		{"Resistor", "Passive"},
		{"Capacitor", "Passive"},
		{"FixedFilmResistor", "Resistor"},
		{"WirewoundResistor", "Resistor"},
		{"TantalumCapacitor", "Capacitor"},
		{"CeramicCapacitor", "Capacitor"},
		{"Diode", "Active"},
	}
	for _, r := range rel {
		o.AddSubClassOf(cls(r[0]), cls(r[1]))
	}
	o.AddDisjoint(cls("Passive"), cls("Active"))
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return o
}

func TestAddClassIdempotent(t *testing.T) {
	o := New()
	o.AddClass(cls("A"))
	o.AddClass(cls("A"))
	if o.Len() != 1 {
		t.Errorf("Len = %d, want 1", o.Len())
	}
}

func TestParentsChildren(t *testing.T) {
	o := buildElectronics(t)
	p := o.Parents(cls("Resistor"))
	if len(p) != 1 || p[0] != cls("Passive") {
		t.Errorf("Parents(Resistor) = %v", p)
	}
	if ch := o.Descendants(cls("Resistor")); len(ch) != 2 {
		t.Errorf("Descendants(Resistor) = %v", ch)
	}
	if got := o.Parents(cls("Nope")); got != nil {
		t.Errorf("Parents(unknown) = %v, want nil", got)
	}
}

func TestRootsLeaves(t *testing.T) {
	o := buildElectronics(t)
	leaves := o.Leaves()
	if len(leaves) != 5 {
		t.Errorf("Leaves = %v, want 5 leaves", leaves)
	}
	if !o.IsLeaf(cls("Diode")) {
		t.Error("Diode should be a leaf")
	}
	if o.IsLeaf(cls("Resistor")) {
		t.Error("Resistor should not be a leaf")
	}
	if o.IsLeaf(cls("Unknown")) {
		t.Error("unknown class should not be a leaf")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	o := buildElectronics(t)
	anc := o.Ancestors(cls("TantalumCapacitor"))
	want := []Class{cls("Capacitor"), cls("Passive"), cls("Product")}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors = %v, want %v", anc, want)
	}
	for _, w := range want {
		if !o.Subsumes(w, cls("TantalumCapacitor")) {
			t.Errorf("%v should subsume TantalumCapacitor", w)
		}
	}
	desc := o.Descendants(cls("Passive"))
	if len(desc) != 6 {
		t.Errorf("Descendants(Passive) = %v, want 6", desc)
	}
}

func TestSubsumesReflexiveAndNegative(t *testing.T) {
	o := buildElectronics(t)
	if !o.Subsumes(cls("Diode"), cls("Diode")) {
		t.Error("Subsumes must be reflexive")
	}
	if o.Subsumes(cls("Resistor"), cls("Diode")) {
		t.Error("Resistor must not subsume Diode")
	}
	if o.Subsumes(cls("Diode"), cls("Product")) {
		t.Error("subclass must not subsume superclass")
	}
	if o.Subsumes(cls("Ghost"), cls("Ghost")) {
		t.Error("unknown class must not subsume itself")
	}
}

func TestMostSpecific(t *testing.T) {
	o := buildElectronics(t)
	got := o.MostSpecific([]Class{cls("Product"), cls("Resistor"), cls("FixedFilmResistor")})
	if len(got) != 1 || got[0] != cls("FixedFilmResistor") {
		t.Errorf("MostSpecific = %v, want [FixedFilmResistor]", got)
	}
	// Incomparable classes are both kept.
	got = o.MostSpecific([]Class{cls("Resistor"), cls("Capacitor")})
	if len(got) != 2 {
		t.Errorf("MostSpecific incomparable = %v, want 2", got)
	}
	// Unknown classes are dropped.
	got = o.MostSpecific([]Class{cls("Ghost"), cls("Diode")})
	if len(got) != 1 || got[0] != cls("Diode") {
		t.Errorf("MostSpecific with unknown = %v", got)
	}
	if got := o.MostSpecific(nil); len(got) != 0 {
		t.Errorf("MostSpecific(nil) = %v", got)
	}
}

func TestSiblings(t *testing.T) {
	o := buildElectronics(t)
	sib := o.Siblings(cls("FixedFilmResistor"))
	if len(sib) != 1 || sib[0] != cls("WirewoundResistor") {
		t.Errorf("Siblings = %v", sib)
	}
	if got := o.Siblings(cls("Product")); len(got) != 0 {
		t.Errorf("Siblings(root) = %v, want none", got)
	}
}

func TestValidateCycle(t *testing.T) {
	o := New()
	o.AddSubClassOf(cls("A"), cls("B"))
	o.AddSubClassOf(cls("B"), cls("C"))
	o.AddSubClassOf(cls("C"), cls("A"))
	err := o.Validate()
	if err == nil {
		t.Fatal("Validate accepted a cycle")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %v does not mention cycle", err)
	}
}

func TestSelfSubClassIgnored(t *testing.T) {
	o := New()
	o.AddSubClassOf(cls("A"), cls("A"))
	if o.Len() != 0 {
		t.Errorf("self subclass created %d classes, want 0", o.Len())
	}
}

func TestMutationInvalidatesClosure(t *testing.T) {
	o := buildElectronics(t)
	if !o.Subsumes(cls("Product"), cls("Diode")) {
		t.Fatal("precondition failed")
	}
	o.AddSubClassOf(cls("Varactor"), cls("Diode"))
	if !o.Subsumes(cls("Product"), cls("Varactor")) {
		t.Error("closure not refreshed after mutation")
	}
	if o.IsLeaf(cls("Diode")) {
		t.Error("Diode still a leaf after gaining a child")
	}
}

func TestGraphRoundTrip(t *testing.T) {
	o := buildElectronics(t)
	o.SetLabel(cls("Diode"), "Diode (active component)")
	g := o.ToGraph()
	o2, err := FromGraph(g)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	if o2.Len() != o.Len() {
		t.Fatalf("round-trip Len = %d, want %d", o2.Len(), o.Len())
	}
	for c := range o.nodes {
		if !o2.Has(c) {
			t.Errorf("round-trip lost class %v", c)
		}
	}
	if !o2.Subsumes(cls("Product"), cls("TantalumCapacitor")) {
		t.Error("round-trip lost subsumption")
	}
	if !o2.ToGraph().Has(rdf.T(cls("Passive"), rdf.DisjointWithTerm, cls("Active"))) {
		t.Error("round-trip lost disjointness")
	}
	if o2.Label(cls("Diode")) != "Diode (active component)" {
		t.Errorf("round-trip label = %q", o2.Label(cls("Diode")))
	}
}

func TestFromGraphRejectsCycle(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.T(cls("A"), rdf.SubClassOfTerm, cls("B")))
	g.Add(rdf.T(cls("B"), rdf.SubClassOfTerm, cls("A")))
	if _, err := FromGraph(g); err == nil {
		t.Error("FromGraph accepted cyclic hierarchy")
	}
}

func TestLocalNameAndLabel(t *testing.T) {
	if got := LocalName(rdf.NewIRI("http://x.org/path#Frag")); got != "Frag" {
		t.Errorf("LocalName hash = %q", got)
	}
	if got := LocalName(rdf.NewIRI("http://x.org/a/b/Leaf")); got != "Leaf" {
		t.Errorf("LocalName slash = %q", got)
	}
	o := New()
	o.AddClass(cls("Widget"))
	if got := o.Label(cls("Widget")); got != "Widget" {
		t.Errorf("default Label = %q", got)
	}
}

// Property: for a random forest (parent[i] < i), every class's ancestor
// set equals the chain walked through the parent array, and MostSpecific
// of {c} ∪ ancestors(c) is exactly {c}.
func TestClosureMatchesChainWalk(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := rand.New(rand.NewSource(seed))
		parent := make([]int, n)
		o := New()
		names := make([]Class, n)
		for i := 0; i < n; i++ {
			names[i] = cls(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		}
		o.AddClass(names[0])
		for i := 1; i < n; i++ {
			parent[i] = rng.Intn(i)
			o.AddSubClassOf(names[i], names[parent[i]])
		}
		for i := 1; i < n; i++ {
			wantAnc := map[Class]struct{}{}
			for j := i; j != 0; j = parent[j] {
				wantAnc[names[parent[j]]] = struct{}{}
			}
			got := o.Ancestors(names[i])
			if len(got) != len(wantAnc) {
				return false
			}
			for _, a := range got {
				if _, ok := wantAnc[a]; !ok {
					return false
				}
			}
			ms := o.MostSpecific(append(got, names[i]))
			if len(ms) != 1 || ms[0] != names[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// bruteAncestors walks the parent edges of c without memo or closure,
// collecting every strict superclass.
func bruteAncestors(parents map[Class][]Class, c Class, acc map[Class]bool) {
	for _, p := range parents[c] {
		acc[p] = true
		bruteAncestors(parents, p, acc)
	}
}

// TestClosureMatchesBruteForce checks Ancestors, Descendants, Subsumes
// and MostSpecific against a plain walk of the parent edges, on random
// DAGs whose classes have up to three parents each, before and after
// edges are added to a built closure.
func TestClosureMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sorted := func(set map[Class]bool) []Class {
		out := []Class{}
		for c := range set {
			out = append(out, c)
		}
		sortClasses(out)
		return out
	}
	for round := 0; round < 40; round++ {
		n := 2 + rng.Intn(40)
		names := make([]Class, n)
		for i, k := range rng.Perm(n) {
			names[i] = cls(fmt.Sprintf("K%03d", k)) // sort order is not creation order
		}
		o := New()
		parents := map[Class][]Class{}
		addEdge := func(i int) {
			j := rng.Intn(i)
			o.AddSubClassOf(names[i], names[j])
			if !slices.Contains(parents[names[i]], names[j]) {
				parents[names[i]] = append(parents[names[i]], names[j])
			}
		}
		for i := 0; i < n; i++ {
			o.AddClass(names[i])
			for e := rng.Intn(4); i > 0 && e > 0; e-- {
				addEdge(i)
			}
		}
		ghost := cls("Ghost")
		for phase := 0; phase < 2; phase++ {
			anc := map[Class]map[Class]bool{}
			for _, c := range names {
				anc[c] = map[Class]bool{}
				bruteAncestors(parents, c, anc[c])
			}
			for _, c := range names {
				if got, want := o.Ancestors(c), sorted(anc[c]); !slices.Equal(got, want) {
					t.Fatalf("round %d phase %d: Ancestors(%v) = %v, want %v", round, phase, c, got, want)
				}
				desc := map[Class]bool{}
				for _, d := range names {
					if anc[d][c] {
						desc[d] = true
					}
				}
				if got, want := o.Descendants(c), sorted(desc); !slices.Equal(got, want) {
					t.Fatalf("round %d phase %d: Descendants(%v) = %v, want %v", round, phase, c, got, want)
				}
				for _, d := range names {
					if got, want := o.Subsumes(d, c), d == c || anc[c][d]; got != want {
						t.Fatalf("round %d phase %d: Subsumes(%v, %v) = %v, want %v", round, phase, d, c, got, want)
					}
				}
				if o.Subsumes(ghost, c) || o.Subsumes(c, ghost) {
					t.Fatalf("round %d phase %d: an unknown class subsumes or is subsumed by %v", round, phase, c)
				}
			}
			for q := 0; q < 20; q++ {
				var cs []Class
				for k := rng.Intn(6); k >= 0; k-- {
					cs = append(cs, names[rng.Intn(n)])
				}
				cs = append(cs, cs[0], ghost) // a duplicate and an unknown class
				want := map[Class]bool{}
				for _, c := range cs {
					if c == ghost {
						continue
					}
					dominated := false
					for _, d := range cs {
						dominated = dominated || (d != ghost && anc[d][c])
					}
					if !dominated {
						want[c] = true
					}
				}
				in := slices.Clone(cs)
				if got := o.MostSpecific(cs); !slices.Equal(got, sorted(want)) {
					t.Fatalf("round %d phase %d: MostSpecific(%v) = %v, want %v", round, phase, cs, got, sorted(want))
				}
				if !slices.Equal(in, cs) {
					t.Fatalf("round %d phase %d: MostSpecific wrote its argument", round, phase)
				}
			}
			// Add edges to the built closure; the next phase checks that
			// the queries see them.
			for e := 0; e < 3 && n > 1; e++ {
				addEdge(1 + rng.Intn(n-1))
			}
		}
	}
}
