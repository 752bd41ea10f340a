package datagen

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/segment"
)

func TestConfigValidate(t *testing.T) {
	if err := NewConfig(1).Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
	if err := SmallConfig(1).Validate(); err != nil {
		t.Errorf("small config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TotalClasses = 2 },
		func(c *Config) { c.LeafClasses = 1 },
		func(c *Config) { c.LeafClasses = c.TotalClasses },
		func(c *Config) { c.TrainingLinks = 0 },
		func(c *Config) { c.CatalogSize = 1 },
		func(c *Config) { c.TokenizedClasses = 0 },
		func(c *Config) { c.TokenizedClasses = c.LeafClasses + 1 },
		func(c *Config) { c.ZipfExponent = 0 },
		func(c *Config) { c.SerialSpace = 0 },
		func(c *Config) { c.Manufacturers = 0 },
		func(c *Config) { c.TypoRate = 1.5 },
		func(c *Config) { c.MislabelRate = -0.1 },
	}
	for i, mutate := range bad {
		c := SmallConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateTaxonomyShape(t *testing.T) {
	cfg := SmallConfig(7)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := ds.Ontology.Len(); got != cfg.TotalClasses {
		t.Errorf("ontology classes = %d, want %d", got, cfg.TotalClasses)
	}
	if got := len(ds.Ontology.Leaves()); got != cfg.LeafClasses {
		t.Errorf("leaves = %d, want %d", got, cfg.LeafClasses)
	}
	// One root: a parentless ancestor of a leaf that every other class
	// descends from.
	var root rdf.Term
	for _, a := range ds.Ontology.Ancestors(ds.Leaves[0]) {
		if len(ds.Ontology.Parents(a)) == 0 {
			root = a
		}
	}
	if got := len(ds.Ontology.Descendants(root)); got != cfg.TotalClasses-1 {
		t.Errorf("root %v has %d descendants, want every other class (%d)", root, got, cfg.TotalClasses-1)
	}
	if err := ds.Ontology.Validate(); err != nil {
		t.Errorf("taxonomy has cycles: %v", err)
	}
	// Every generated leaf must be a leaf of the ontology.
	for _, l := range ds.Leaves {
		if !ds.Ontology.IsLeaf(l) {
			t.Errorf("%v in Leaves but not a leaf", l)
		}
	}
}

func TestGeneratePaperScaleTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	cfg := NewConfig(42)
	cfg.TrainingLinks = 500 // keep the test fast; taxonomy is the target
	cfg.CatalogSize = 1000
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := ds.Ontology.Len(); got != 566 {
		t.Errorf("classes = %d, want 566", got)
	}
	if got := len(ds.Ontology.Leaves()); got != 226 {
		t.Errorf("leaves = %d, want 226", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(SmallConfig(123))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallConfig(123))
	if err != nil {
		t.Fatal(err)
	}
	if a.Local.Len() != b.Local.Len() || a.External.Len() != b.External.Len() {
		t.Fatal("graph sizes differ across identical seeds")
	}
	for _, tr := range a.External.Triples() {
		if !b.External.Has(tr) {
			t.Fatalf("external triple %v missing in second run", tr)
		}
	}
	if a.Training.Len() != b.Training.Len() {
		t.Fatal("training sizes differ")
	}
	for i := range a.Training.Links {
		if a.Training.Links[i] != b.Training.Links[i] {
			t.Fatalf("link %d differs", i)
		}
	}
	c, err := Generate(SmallConfig(124))
	if err != nil {
		t.Fatal(err)
	}
	same := c.External.Len() == a.External.Len()
	if same {
		diff := false
		for _, tr := range a.External.Triples() {
			if !c.External.Has(tr) {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical externals")
		}
	}
}

func TestGenerateCorpusInvariants(t *testing.T) {
	cfg := SmallConfig(9)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if ds.Training.Len() != cfg.TrainingLinks {
		t.Errorf("|TS| = %d, want %d", ds.Training.Len(), cfg.TrainingLinks)
	}
	if err := ds.Training.Validate(); err != nil {
		t.Errorf("training set invalid: %v", err)
	}
	// Catalog instance count.
	typed := map[rdf.Term]struct{}{}
	ds.Local.Match(rdf.Term{}, rdf.TypeTerm, rdf.Term{}, func(tr rdf.Triple) bool {
		typed[tr.S] = struct{}{}
		return true
	})
	if len(typed) != cfg.CatalogSize {
		t.Errorf("catalog instances = %d, want %d", len(typed), cfg.CatalogSize)
	}
	// Every link endpoint exists with the right facts.
	for _, l := range ds.Training.Links {
		if PartNumber(ds.External, l.External) == "" {
			t.Fatalf("external %v lacks a part number", l.External)
		}
		if _, ok := ds.External.FirstObject(l.External, ManufacturerProp); !ok {
			t.Fatalf("external %v lacks a manufacturer", l.External)
		}
		types := ds.Local.TypesOf(l.Local)
		if len(types) != 1 {
			t.Fatalf("local %v types = %v", l.Local, types)
		}
		if !ds.Ontology.IsLeaf(types[0]) {
			t.Fatalf("local %v typed with non-leaf %v", l.Local, types[0])
		}
		if ds.TrueClass[l.External] != types[0] {
			t.Fatalf("TrueClass mismatch for %v", l.External)
		}
	}
	if got := len(ds.ExternalItems()); got != cfg.TrainingLinks {
		t.Errorf("ExternalItems = %d", got)
	}
}

func TestGenerateMarkersAppearInPartNumbers(t *testing.T) {
	cfg := SmallConfig(11)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// For each tokenized class, at least one training external of that
	// class should carry one of the class's marker segments — otherwise
	// no rules could ever be learned.
	sp := segment.NewSeparatorSplitter(segment.Options{})
	segsByClass := map[rdf.Term]map[string]int{}
	for _, l := range ds.Training.Links {
		c := ds.TrueClass[l.External]
		m := segsByClass[c]
		if m == nil {
			m = map[string]int{}
			segsByClass[c] = m
		}
		for _, s := range sp.Split(PartNumber(ds.External, l.External)) {
			m[s]++
		}
	}
	found := 0
	for _, c := range ds.Tokenized {
		m := segsByClass[c]
		// A marker is a segment appearing repeatedly for this class.
		for _, cnt := range m {
			if cnt >= 3 {
				found++
				break
			}
		}
	}
	if found < len(ds.Tokenized)/2 {
		t.Errorf("only %d of %d tokenized classes show repeated segments", found, len(ds.Tokenized))
	}
}

func TestGenerateClassSkew(t *testing.T) {
	cfg := SmallConfig(13)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	counts := map[rdf.Term]int{}
	for _, l := range ds.Training.Links {
		counts[ds.TrueClass[l.External]]++
	}
	// Rank 0 should be (one of) the most frequent; at minimum it must
	// beat the median class count.
	top := counts[ds.Leaves[0]]
	beaten := 0
	for _, c := range ds.Leaves {
		if counts[c] < top {
			beaten++
		}
	}
	if beaten < len(ds.Leaves)/2 {
		t.Errorf("rank-0 class (count %d) beats only %d of %d classes", top, beaten, len(ds.Leaves))
	}
}

func TestProviderVariantPreservesMostSegments(t *testing.T) {
	cfg := SmallConfig(15)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sp := segment.NewSeparatorSplitter(segment.Options{})
	preserved, total := 0, 0
	for i, l := range ds.Training.Links {
		if i >= 100 {
			break
		}
		extSegs := map[string]struct{}{}
		for _, s := range sp.Split(PartNumber(ds.External, l.External)) {
			extSegs[s] = struct{}{}
		}
		for _, s := range sp.Split(PartNumber(ds.Local, l.Local)) {
			total++
			if _, ok := extSegs[s]; ok {
				preserved++
			}
		}
	}
	if total == 0 {
		t.Fatal("no segments compared")
	}
	// Mislabels and typos lose some segments, but the bulk must survive
	// provider rendering — that is the premise of the whole approach.
	if ratio := float64(preserved) / float64(total); ratio < 0.75 {
		t.Errorf("segment preservation ratio = %.2f, want >= 0.75", ratio)
	}
}

func TestGenerateToponyms(t *testing.T) {
	ds, err := GenerateToponyms(ToponymConfig{Seed: 3, Links: 200})
	if err != nil {
		t.Fatalf("GenerateToponyms: %v", err)
	}
	if ds.Training.Len() != 200 {
		t.Errorf("|TS| = %d", ds.Training.Len())
	}
	if got := len(ds.Ontology.Leaves()); got != len(placeTypes) {
		t.Errorf("leaves = %d, want %d", got, len(placeTypes))
	}
	// Labels must embed type words for the linked class often enough.
	hits := 0
	for _, l := range ds.Training.Links {
		label, ok := ds.External.FirstObject(l.External, rdf.LabelTerm)
		if !ok {
			t.Fatalf("external %v lacks label", l.External)
		}
		cls := ds.TrueClass[l.External]
		for _, pt := range placeTypes {
			if rdf.NewIRI(OntoNS+pt.class) != cls {
				continue
			}
			for _, w := range pt.words {
				if strings.Contains(label.Value, w) {
					hits++
					break
				}
			}
		}
	}
	if hits < 150 {
		t.Errorf("only %d/200 labels embed their type word", hits)
	}
	if _, err := GenerateToponyms(ToponymConfig{Seed: 1, Links: 0}); err == nil {
		t.Error("Links=0 accepted")
	}
	if _, err := GenerateToponyms(ToponymConfig{Seed: 1, Links: 10, Catalog: 5}); err == nil {
		t.Error("Catalog < Links accepted")
	}
}

func TestPartNumberHelperMissing(t *testing.T) {
	g := rdf.NewGraph()
	if got := PartNumber(g, rdf.NewIRI("http://x/none")); got != "" {
		t.Errorf("PartNumber missing = %q", got)
	}
}

// collectSink rebuilds Dataset-shaped state from the streaming API.
type collectSink struct {
	local, external *rdf.Graph
	links           int
	fail            error
}

func (s *collectSink) Local(id, class rdf.Term, pn string) error {
	if s.fail != nil {
		return s.fail
	}
	s.local.Add(rdf.T(id, rdf.TypeTerm, class))
	s.local.Add(rdf.T(id, PartNumberProp, rdf.NewLiteral(pn)))
	return nil
}

func (s *collectSink) External(id rdf.Term, pn, manufacturer string, local, trueClass rdf.Term) error {
	s.external.Add(rdf.T(id, PartNumberProp, rdf.NewLiteral(pn)))
	s.external.Add(rdf.T(id, ManufacturerProp, rdf.NewLiteral(manufacturer)))
	s.links++
	return nil
}

// TestStreamMatchesGenerate pins the streaming contract: Stream must
// produce exactly the corpus Generate materializes for the same Config.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := SmallConfig(11)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sink := &collectSink{local: rdf.NewGraph(), external: rdf.NewGraph()}
	ont, err := Stream(cfg, sink)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if got, want := len(ont.Leaves()), len(ds.Ontology.Leaves()); got != want {
		t.Errorf("streamed ontology has %d leaves, Generate made %d", got, want)
	}
	text := func(g *rdf.Graph) string {
		var b strings.Builder
		if err := rdf.WriteNTriples(&b, g); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if text(sink.local) != text(ds.Local) {
		t.Error("streamed local graph diverged from Generate")
	}
	if text(sink.external) != text(ds.External) {
		t.Error("streamed external graph diverged from Generate")
	}
	if sink.links != len(ds.Training.Links) {
		t.Errorf("streamed %d links, Generate made %d", sink.links, len(ds.Training.Links))
	}
}

// TestStreamSinkErrorAborts: a sink error must stop generation.
func TestStreamSinkErrorAborts(t *testing.T) {
	sink := &collectSink{local: rdf.NewGraph(), external: rdf.NewGraph(), fail: errStop}
	if _, err := Stream(SmallConfig(11), sink); err != errStop {
		t.Fatalf("Stream error = %v, want errStop", err)
	}
}

var errStop = errors.New("stop")
