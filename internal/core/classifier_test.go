package core

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// learnFixture runs the standard scenario learner once for classifier
// tests.
func learnFixture(t testing.TB) (*Model, *rdf.Graph, *rdf.Graph) {
	ts, se, sl, ol := fixture(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	return m, se, sl
}

func TestClassifyNewItem(t *testing.T) {
	m, se, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)

	item := iri("ext/new1")
	se.Add(rdf.T(item, pnProp, rdf.NewLiteral("XYZ-ohm-55")))
	preds := cl.Classify(item, se)
	if len(preds) != 1 {
		t.Fatalf("predictions = %v, want 1", preds)
	}
	if preds[0].Class != clsFFR {
		t.Errorf("predicted %v, want FixedFilmResistor", preds[0].Class)
	}
	if preds[0].Rule.Confidence() != 1 {
		t.Errorf("justifying rule confidence = %v", preds[0].Rule.Confidence())
	}
}

func TestClassifyDedupsSameClassKeepingBestRule(t *testing.T) {
	m, se, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)

	// "T83" fires T83⇒Tant (conf 1) and "SMD" fires SMD⇒Tant (conf 0.5):
	// same subspace (Tant), so only the better rule survives.
	item := iri("ext/new2")
	se.Add(rdf.T(item, pnProp, rdf.NewLiteral("T83-SMD-77")))
	preds := cl.Classify(item, se)
	if len(preds) != 1 {
		t.Fatalf("predictions = %v, want 1 after same-subspace dedup", preds)
	}
	if preds[0].Rule.Segment != "T83" {
		t.Errorf("kept rule %v, want the T83 (higher confidence) one", preds[0].Rule)
	}
}

func TestClassifyOrdering(t *testing.T) {
	m, se, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)

	// "ohm" (conf 1 ⇒ FFR) and "SMD" (conf 0.5 ⇒ Tant): two predictions
	// ordered by confidence.
	item := iri("ext/new3")
	se.Add(rdf.T(item, pnProp, rdf.NewLiteral("ohm-SMD")))
	preds := cl.Classify(item, se)
	if len(preds) != 2 {
		t.Fatalf("predictions = %v, want 2", preds)
	}
	if preds[0].Class != clsFFR || preds[1].Class != clsTant {
		t.Errorf("order = [%v %v], want [FFR Tant]", preds[0].Class, preds[1].Class)
	}
}

func TestClassifyNoRuleFires(t *testing.T) {
	m, se, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)
	item := iri("ext/new4")
	se.Add(rdf.T(item, pnProp, rdf.NewLiteral("UNKNOWN-99")))
	if preds := cl.Classify(item, se); preds != nil {
		t.Errorf("predictions = %v, want nil", preds)
	}
}

func TestClassifyValuesWithoutGraph(t *testing.T) {
	m, _, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)
	preds := cl.ClassifyValues(map[rdf.Term][]string{pnProp: {"CER-0042"}})
	if len(preds) != 1 || preds[0].Class != clsCer {
		t.Errorf("ClassifyValues = %v", preds)
	}
	// Unknown property contributes nothing.
	preds = cl.ClassifyValues(map[rdf.Term][]string{iri("bogus"): {"CER"}})
	if preds != nil {
		t.Errorf("unknown property produced %v", preds)
	}
}

func TestClassifierProperties(t *testing.T) {
	m, _, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)
	props := cl.Properties()
	if len(props) != 1 || props[0] != pnProp {
		t.Errorf("Properties = %v", props)
	}
}

func TestClassifierNilSplitterDefault(t *testing.T) {
	m, _, _ := learnFixture(t)
	cl := NewClassifier(&m.Rules, nil)
	preds := cl.ClassifyValues(map[rdf.Term][]string{pnProp: {"zz ohm zz"}})
	if len(preds) != 1 || preds[0].Class != clsFFR {
		t.Errorf("default splitter predictions = %v", preds)
	}
}

func buildCatalog(t testing.TB, sizes map[rdf.Term]int) *rdf.Graph {
	t.Helper()
	sl := rdf.NewGraph()
	for class, n := range sizes {
		for i := 0; i < n; i++ {
			inst := iri(fmt.Sprintf("cat/%s-%d", localName(class), i))
			sl.Add(rdf.T(inst, rdf.TypeTerm, class))
		}
	}
	return sl
}

func TestInstanceIndex(t *testing.T) {
	ol := testOntology(t)
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 10, clsWWR: 5, clsTant: 3})
	ix := NewInstanceIndex(sl, ol)
	if ix.Total() != 18 {
		t.Errorf("Total = %d, want 18", ix.Total())
	}
	if got := instanceCount(ix, clsFFR); got != 10 {
		t.Errorf("Count(FFR) = %d", got)
	}
	// Parent class includes subclass instances.
	if got := instanceCount(ix, clsRes); got != 15 {
		t.Errorf("Count(Resistor) = %d, want 15", got)
	}
	if got := instanceCount(ix, clsProd); got != 18 {
		t.Errorf("Count(Product) = %d, want 18", got)
	}
	if got := instanceCount(ix, clsCer); got != 0 {
		t.Errorf("Count(Ceramic) = %d, want 0", got)
	}
	// Memoized class set identity on repeat calls.
	a := ix.set(clsRes)
	b := ix.set(clsRes)
	if &a[0] != &b[0] {
		t.Error("class set not memoized")
	}
}

func TestInstanceIndexIgnoresClassDeclarations(t *testing.T) {
	ol := testOntology(t)
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 2})
	// Class declarations (x rdf:type owl:Class) must not count as
	// instances.
	sl.Add(rdf.T(clsFFR, rdf.TypeTerm, rdf.ClassTerm))
	ix := NewInstanceIndex(sl, ol)
	if ix.Total() != 2 {
		t.Errorf("Total = %d, want 2", ix.Total())
	}
}

func TestSpaceAndReduction(t *testing.T) {
	m, se, _ := learnFixture(t)
	ol := testOntology(t)
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 20, clsWWR: 20, clsTant: 10, clsCer: 50})
	ix := NewInstanceIndex(sl, ol)
	cl := NewClassifier(&m.Rules, m.Config.Splitter)

	item := iri("ext/new5")
	se.Add(rdf.T(item, pnProp, rdf.NewLiteral("ohm-SMD")))
	preds := cl.Classify(item, se)
	sr := Space(item, preds, ix)
	if sr.CatalogSize != 100 {
		t.Errorf("CatalogSize = %d", sr.CatalogSize)
	}
	// FFR (20) ∪ Tant (10) = 30 candidates.
	if sr.UnionSize != 30 {
		t.Errorf("UnionSize = %d, want 30", sr.UnionSize)
	}
	if got := sr.ReductionFactor(); got < 3.32 || got > 3.34 {
		t.Errorf("ReductionFactor = %v, want ~3.33", got)
	}
	if len(sr.Subspaces) != 2 {
		t.Fatalf("Subspaces = %v", sr.Subspaces)
	}
	if sr.Subspaces[0].Class != clsFFR || sr.Subspaces[0].Size != 20 {
		t.Errorf("first subspace = %+v", sr.Subspaces[0])
	}
	pairs := CandidatePairs(sr, ix)
	if len(pairs) != 30 {
		t.Errorf("CandidatePairs = %d, want 30", len(pairs))
	}
	for _, p := range pairs {
		if p[0] != item {
			t.Fatalf("pair %v does not start with the item", p)
		}
	}
}

func TestSpaceNoPredictions(t *testing.T) {
	ol := testOntology(t)
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 5})
	ix := NewInstanceIndex(sl, ol)
	sr := Space(iri("ext/x"), nil, ix)
	if sr.UnionSize != 0 {
		t.Errorf("UnionSize = %d", sr.UnionSize)
	}
	if sr.ReductionFactor() != 0 {
		t.Errorf("ReductionFactor = %v, want 0 sentinel", sr.ReductionFactor())
	}
	if len(CandidatePairs(sr, ix)) != 0 {
		t.Error("CandidatePairs for empty report not empty")
	}
}

func TestInstanceIndexFreeze(t *testing.T) {
	ol := testOntology(t)
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 3, clsTant: 2})
	ix := NewInstanceIndex(sl, ol)
	ix.Freeze([]rdf.Term{clsFFR, clsRes, clsProd})
	if got := instanceCount(ix, clsRes); got != 3 {
		t.Errorf("Count after Freeze = %d", got)
	}
}
