package datalink

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// buildTinyWorld assembles a minimal end-to-end world through the public
// API only: ontology, catalog, provider docs and training links.
func buildTinyWorld(t testing.TB) (TrainingSet, *Graph, *Graph, *Ontology, Term) {
	t.Helper()
	pn := NewIRI("http://ex.org/pn")

	ol := NewOntology()
	product := NewIRI("http://ex.org/Product")
	resistor := NewIRI("http://ex.org/Resistor")
	capacitor := NewIRI("http://ex.org/Capacitor")
	ol.AddSubClassOf(resistor, product)
	ol.AddSubClassOf(capacitor, product)

	se := NewGraph()
	sl := NewGraph()
	var ts TrainingSet
	add := func(id, pnv string, class Term) {
		ext := NewIRI("http://ex.org/ext/" + id)
		loc := NewIRI("http://ex.org/loc/" + id)
		se.Add(T(ext, pn, NewLiteral(pnv)))
		sl.Add(T(loc, RDFType, class))
		sl.Add(T(loc, pn, NewLiteral(pnv)))
		ts.Links = append(ts.Links, Link{External: ext, Local: loc})
	}
	for i, v := range []string{"ohm-100", "ohm-220", "ohm-470", "ohm-512"} {
		add("r"+string(rune('0'+i)), v, resistor)
	}
	for i, v := range []string{"T83-1", "T83-2", "T83-3"} {
		add("c"+string(rune('0'+i)), v, capacitor)
	}
	return ts, se, sl, ol, pn
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ts, se, sl, ol, pn := buildTinyWorld(t)
	p, err := NewPipeline(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	if p.Model.Rules.Len() == 0 {
		t.Fatal("no rules learned")
	}

	// Classify a new provider item through the public surface.
	newItem := NewIRI("http://ex.org/ext/new")
	se.Add(T(newItem, pn, NewLiteral("XX/ohm/33")))
	view := p.Snapshot()
	preds := view.Classify(newItem)
	if len(preds) == 0 {
		t.Fatal("no predictions for ohm item")
	}
	if got := preds[0].Class; got != NewIRI("http://ex.org/Resistor") {
		t.Errorf("predicted %v, want Resistor", got)
	}

	sr := view.ReducedSpace(newItem)
	if sr.UnionSize != 4 || sr.CatalogSize != 7 {
		t.Errorf("space = %d of %d, want 4 of 7", sr.UnionSize, sr.CatalogSize)
	}
	if rf := sr.ReductionFactor(); rf < 1.7 || rf > 1.8 {
		t.Errorf("reduction factor = %v", rf)
	}

	// Link inside the reduced space: the item's best match is its top 1.
	top, err := view.LinkTopK(context.Background(), []Term{newItem}, LinkerConfig{
		Comparators: []Comparator{{
			ExternalProperty: pn, LocalProperty: pn,
			Measure: JaroWinkler, Weight: 1,
		}},
		Threshold: 0.3,
	}, 1)
	if err != nil {
		t.Fatalf("LinkTopK: %v", err)
	}
	if matches := top[newItem]; len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
}

func TestPublicAPIRuleSerialization(t *testing.T) {
	ts, se, sl, ol, _ := buildTinyWorld(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Rules.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rs, err := ReadRules(&buf)
	if err != nil {
		t.Fatalf("ReadRules: %v", err)
	}
	if rs.Len() != m.Rules.Len() {
		t.Errorf("round-trip rules = %d, want %d", rs.Len(), m.Rules.Len())
	}
	cl := NewClassifier(rs, nil)
	preds := cl.ClassifyValues(map[Term][]string{
		NewIRI("http://ex.org/pn"): {"zzz T83 yyy"},
	})
	if len(preds) == 0 || preds[0].Class != NewIRI("http://ex.org/Capacitor") {
		t.Errorf("deserialized rules misclassify: %v", preds)
	}
}

func TestPublicAPIRDFRoundTrip(t *testing.T) {
	g := NewGraph()
	g.Add(T(NewIRI("http://a"), NewIRI("http://p"), NewLangLiteral("été", "fr")))
	g.Add(T(NewBlank("b"), NewIRI("http://p"), NewTypedLiteral("4", "http://www.w3.org/2001/XMLSchema#integer")))
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 2 {
		t.Errorf("round-trip triples = %d", g2.Len())
	}
}

func TestPublicAPIExperimentFlow(t *testing.T) {
	ds, err := GenerateCorpus(SmallCorpusConfig(5))
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	c, err := BuildCorpus(ds, LearnerConfig{})
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}
	rows := Table1(c, PaperBands())
	if len(rows) != 4 {
		t.Fatalf("table1 rows = %d", len(rows))
	}
	out := Table1Table(rows).String()
	if !strings.Contains(out, "#rules") {
		t.Errorf("table rendering broken:\n%s", out)
	}
	if len(SectionStats(c)) == 0 {
		t.Error("no section stats")
	}
	red := SpaceReduction(c, PaperBands())
	if len(red) != 4 {
		t.Errorf("reduction rows = %d", len(red))
	}
	cmp := CompareBlocking(c, DefaultBlockingMethods(c))
	if len(cmp) == 0 {
		t.Error("no blocking rows")
	}
	gen := GeneralizationExperiment(c)
	if len(gen) != 3 {
		t.Errorf("generalization rows = %d", len(gen))
	}
	ord := OrderingAblation(c)
	if len(ord) != 3 {
		t.Errorf("ordering rows = %d", len(ord))
	}
}

func TestPublicAPIToponyms(t *testing.T) {
	ds, err := GenerateToponyms(ToponymConfig{Seed: 2, Links: 150})
	if err != nil {
		t.Fatalf("GenerateToponyms: %v", err)
	}
	m, err := Learn(LearnerConfig{SupportThreshold: 0.01}, ds.Training, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.Rules.Len() == 0 {
		t.Fatal("no toponym rules learned")
	}
	cl := NewClassifier(&m.Rules, m.Config.Splitter)
	preds := cl.ClassifyValues(map[Term][]string{
		RDFSLabel: {"Grand Solferino Museum"},
	})
	if len(preds) == 0 {
		t.Fatal("museum label not classified")
	}
	if preds[0].Class != NewIRI("http://thales.example/onto#Museum") {
		t.Errorf("predicted %v, want Museum", preds[0].Class)
	}
}

// TestLinkTopKSeesNewItemsAndComparatorEdits: the pipeline keeps its
// linkage engine across queries, yet an item added to the external
// graph after a query is linked by the next view (the incremental-linking
// flow of examples/fusion), and a caller mutating its comparator slice in
// place is not served the engine built for the old comparators.
func TestLinkTopKSeesNewItemsAndComparatorEdits(t *testing.T) {
	ts, se, sl, ol, pn := buildTinyWorld(t)
	p, err := NewPipeline(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	cmps := []Comparator{{
		ExternalProperty: pn, LocalProperty: pn,
		Measure: JaroWinkler, Weight: 1,
	}}
	cfg := LinkerConfig{Comparators: cmps, Threshold: 0.3}
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	link := func(item Term) []Match {
		t.Helper()
		top, err := p.Snapshot().LinkTopK(context.Background(), []Term{item}, cfg, 1)
		if err != nil {
			t.Fatalf("LinkTopK: %v", err)
		}
		return top[item]
	}

	item1 := NewIRI("http://ex.org/ext/inc1")
	se.Add(T(item1, pn, NewLiteral("XX/ohm/100")))
	if m1 := link(item1); len(m1) != 1 {
		t.Fatalf("first call matches = %v", m1)
	}

	// Second arriving item: added after the engine was built.
	item2 := NewIRI("http://ex.org/ext/inc2")
	se.Add(T(item2, pn, NewLiteral("YY/ohm/220")))
	m2 := link(item2)
	if len(m2) != 1 {
		t.Fatalf("stale engine: second item not linked, matches = %v", m2)
	}

	// Unchanged graphs + config: the engine must serve identical output.
	if m2b := link(item2); len(m2b) != len(m2) || m2b[0] != m2[0] {
		t.Errorf("repeated call diverges: %v vs %v", m2b, m2)
	}

	// In-place mutation of the caller's comparator slice must not be
	// aliased into the pipeline's comparator match.
	cmps[0].Measure = Levenshtein
	cmps[0].Weight = 3
	if m3 := link(item2); len(m3) != 1 || m3[0].Score == m2[0].Score {
		t.Errorf("stale engine after comparator mutation: %v vs %v", m3, m2)
	}
}
