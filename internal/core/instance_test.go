package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

// instFixtureOntology builds Part <- {Resistor <- SMDResistor, Capacitor}.
// instanceCount is |ix.Instances(c)|: the popcount of the class set.
func instanceCount(ix *InstanceIndex, c rdf.Term) int { return ix.set(c).Len() }

func instFixtureOntology(t *testing.T) (*ontology.Ontology, map[string]rdf.Term) {
	t.Helper()
	classes := map[string]rdf.Term{
		"Part":        rdf.NewIRI("http://ex.org/onto#Part"),
		"Resistor":    rdf.NewIRI("http://ex.org/onto#Resistor"),
		"SMDResistor": rdf.NewIRI("http://ex.org/onto#SMDResistor"),
		"Capacitor":   rdf.NewIRI("http://ex.org/onto#Capacitor"),
	}
	ol := ontology.New()
	for _, c := range classes {
		ol.AddClass(c)
	}
	ol.AddSubClassOf(classes["Resistor"], classes["Part"])
	ol.AddSubClassOf(classes["Capacitor"], classes["Part"])
	ol.AddSubClassOf(classes["SMDResistor"], classes["Resistor"])
	if err := ol.Validate(); err != nil {
		t.Fatal(err)
	}
	return ol, classes
}

func inst(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex.org/l/i%d", i)) }

// assertIndexEqual compares every observable of the incremental index
// against a freshly built one.
func assertIndexEqual(t *testing.T, step string, got *InstanceIndex, sl *rdf.Graph, ol *ontology.Ontology, classes map[string]rdf.Term) {
	t.Helper()
	want := NewInstanceIndex(sl, ol)
	if got.Total() != want.Total() {
		t.Fatalf("%s: Total() = %d, want %d", step, got.Total(), want.Total())
	}
	for name, c := range classes {
		g, w := got.Instances(c), want.Instances(c)
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Instances(%s) = %v, want %v", step, name, g, w)
		}
	}
}

func TestInstanceIndexIncrementalEquivalence(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	names := []string{"Part", "Resistor", "SMDResistor", "Capacitor"}
	sl := rdf.NewGraph()
	ix := NewInstanceIndex(sl, ol)

	// setTypes mirrors a graph mutation into the incremental index the
	// way Pipeline.Upsert does: rewrite the item's type triples, then
	// upsert with the new class list.
	setTypes := func(i int, cls ...rdf.Term) {
		item := inst(i)
		for _, tr := range sl.Find(item, rdf.TypeTerm, rdf.Term{}) {
			sl.Remove(tr)
		}
		for _, c := range cls {
			sl.Add(rdf.T(item, rdf.TypeTerm, c))
		}
		ix.UpsertInstance(item, cls)
	}

	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 400; step++ {
		i := rng.Intn(30)
		switch rng.Intn(4) {
		case 0: // type with one random class
			setTypes(i, classes[names[rng.Intn(len(names))]])
		case 1: // multi-class instance
			setTypes(i, classes[names[rng.Intn(len(names))]], classes[names[rng.Intn(len(names))]])
		case 2: // remove via empty upsert
			setTypes(i)
		case 3: // remove via RemoveInstance
			item := inst(i)
			for _, tr := range sl.Find(item, rdf.TypeTerm, rdf.Term{}) {
				sl.Remove(tr)
			}
			ix.RemoveInstance(item)
		}
		// Touch the memo so invalidation correctness is exercised, not
		// just slice maintenance.
		ix.Instances(classes[names[rng.Intn(len(names))]])
		if step%23 == 0 {
			assertIndexEqual(t, fmt.Sprintf("step %d", step), ix, sl, ol, classes)
		}
	}
	assertIndexEqual(t, "final", ix, sl, ol, classes)
}

func TestInstanceIndexUpsertReportsChange(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	ix := NewInstanceIndex(rdf.NewGraph(), ol)
	if !ix.UpsertInstance(inst(1), []rdf.Term{classes["Resistor"]}) {
		t.Fatal("first upsert must report a change")
	}
	if ix.UpsertInstance(inst(1), []rdf.Term{classes["Resistor"]}) {
		t.Fatal("idempotent upsert must report no change")
	}
	if !ix.UpsertInstance(inst(1), []rdf.Term{classes["Capacitor"]}) {
		t.Fatal("class change must report a change")
	}
	if ix.Total() != 1 {
		t.Fatalf("Total() = %d, want 1", ix.Total())
	}
	if !ix.RemoveInstance(inst(1)) {
		t.Fatal("removing a present instance must report a change")
	}
	if ix.RemoveInstance(inst(1)) {
		t.Fatal("removing an absent instance must report no change")
	}
	if ix.Total() != 0 {
		t.Fatalf("Total() = %d, want 0 after removal", ix.Total())
	}
}

func TestInstanceIndexAncestorInvalidation(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	sl := rdf.NewGraph()
	sl.Add(rdf.T(inst(1), rdf.TypeTerm, classes["SMDResistor"]))
	ix := NewInstanceIndex(sl, ol)
	// Memoize the whole chain.
	for _, n := range []string{"Part", "Resistor", "SMDResistor"} {
		if got := instanceCount(ix, classes[n]); got != 1 {
			t.Fatalf("Count(%s) = %d, want 1", n, got)
		}
	}
	// A new SMD resistor must surface through every memoized ancestor.
	ix.UpsertInstance(inst(2), []rdf.Term{classes["SMDResistor"]})
	for _, n := range []string{"Part", "Resistor", "SMDResistor"} {
		if got := instanceCount(ix, classes[n]); got != 2 {
			t.Fatalf("after upsert: Count(%s) = %d, want 2", n, got)
		}
	}
	if got := instanceCount(ix, classes["Capacitor"]); got != 0 {
		t.Fatalf("Count(Capacitor) = %d, want 0", got)
	}
}

func TestInstanceIndexSnapshotImmutable(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	sl := rdf.NewGraph()
	for i := 0; i < 10; i++ {
		sl.Add(rdf.T(inst(i), rdf.TypeTerm, classes["Resistor"]))
	}
	ix := NewInstanceIndex(sl, ol)
	ix.Freeze([]rdf.Term{classes["Part"], classes["Resistor"]})

	snap := ix.Snapshot()
	if !snap.Frozen() || ix.Frozen() {
		t.Fatal("snapshot must be frozen, live index must not be")
	}
	if snap.Snapshot() != snap {
		t.Fatal("snapshot of a snapshot should be itself")
	}
	wantRes := append([]rdf.Term(nil), snap.Instances(classes["Resistor"])...)
	wantPart := append([]rdf.Term(nil), snap.Instances(classes["Part"])...)
	wantTotal := snap.Total()

	// Mutate the live index heavily: adds, class moves, removals.
	for i := 0; i < 10; i++ {
		ix.UpsertInstance(inst(100+i), []rdf.Term{classes["SMDResistor"]})
	}
	for i := 0; i < 5; i++ {
		ix.UpsertInstance(inst(i), []rdf.Term{classes["Capacitor"]})
	}
	for i := 5; i < 8; i++ {
		ix.RemoveInstance(inst(i))
	}

	if snap.Total() != wantTotal {
		t.Fatalf("snapshot Total drifted: %d, want %d", snap.Total(), wantTotal)
	}
	if got := snap.Instances(classes["Resistor"]); !reflect.DeepEqual(got, wantRes) {
		t.Fatalf("snapshot Instances(Resistor) drifted: %v, want %v", got, wantRes)
	}
	if got := snap.Instances(classes["Part"]); !reflect.DeepEqual(got, wantPart) {
		t.Fatalf("snapshot Instances(Part) drifted: %v, want %v", got, wantPart)
	}
	// Unmemoized class on the frozen snapshot: computed per call, no
	// memo write, and it sees the snapshot-time state (zero capacitors).
	if got := instanceCount(snap, classes["Capacitor"]); got != 0 {
		t.Fatalf("snapshot Count(Capacitor) = %d, want 0", got)
	}
	// The live index meanwhile reflects everything.
	if got := instanceCount(ix, classes["Capacitor"]); got != 5 {
		t.Fatalf("live Count(Capacitor) = %d, want 5", got)
	}
	if ix.Total() != wantTotal+10-3 {
		t.Fatalf("live Total = %d, want %d", ix.Total(), wantTotal+10-3)
	}
}

// TestInstanceIndexSnapshotConcurrentReads drives snapshot readers while
// the live index mutates; -race proves the copy-on-write contract.
func TestInstanceIndexSnapshotConcurrentReads(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	sl := rdf.NewGraph()
	for i := 0; i < 50; i++ {
		sl.Add(rdf.T(inst(i), rdf.TypeTerm, classes["Resistor"]))
	}
	ix := NewInstanceIndex(sl, ol)
	ix.Freeze([]rdf.Term{classes["Part"]})
	snap := ix.Snapshot()
	want := instanceCount(snap, classes["Part"])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := instanceCount(snap, classes["Part"]); got != want {
					t.Errorf("snapshot read tore: %d, want %d", got, want)
					return
				}
				snap.Contains(classes["Resistor"], inst(7))
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0:
			ix.UpsertInstance(inst(1000+i), []rdf.Term{classes["SMDResistor"]})
		case 1:
			ix.UpsertInstance(inst(i%50), []rdf.Term{classes["Capacitor"]})
		case 2:
			ix.RemoveInstance(inst(1000 + i - 2))
		}
	}
	close(stop)
	wg.Wait()
}

// TestInstanceIndexSnapshotColdOntologyConcurrentReads snapshots an
// index whose ontology closure was never touched, then reads unwarmed
// classes from several goroutines: the lazy closure build must have been
// forced at snapshot time, not raced on first use.
func TestInstanceIndexSnapshotColdOntologyConcurrentReads(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	sl := rdf.NewGraph()
	for i := 0; i < 30; i++ {
		sl.Add(rdf.T(inst(i), rdf.TypeTerm, classes["SMDResistor"]))
	}
	snap := NewInstanceIndex(sl, ol).Snapshot() // no Freeze, closure cold
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := instanceCount(snap, classes["Part"]); got != 30 {
					t.Errorf("Count(Part) = %d, want 30", got)
					return
				}
				instanceCount(snap, classes["Resistor"])
			}
		}()
	}
	wg.Wait()
}

func TestInstanceIndexSnapshotMutationPanics(t *testing.T) {
	ol, classes := instFixtureOntology(t)
	snap := NewInstanceIndex(rdf.NewGraph(), ol).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a frozen snapshot did not panic")
		}
	}()
	snap.UpsertInstance(inst(1), []rdf.Term{classes["Resistor"]})
}
