package datalink

import (
	"strings"
	"testing"
)

// TestFacadeExperimentWrappers drives every experiment wrapper of the
// public facade on one small corpus, checking each renders a table.
func TestFacadeExperimentWrappers(t *testing.T) {
	ds, err := GenerateCorpus(SmallCorpusConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCorpus(ds, LearnerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sweep", func(t *testing.T) {
		rows, err := ThresholdSweep(ds, LearnerConfig{}, []float64{0.01, 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if out := SweepTable(rows).String(); !strings.Contains(out, "th") {
			t.Errorf("sweep table: %q", out)
		}
	})
	t.Run("splitters", func(t *testing.T) {
		rows, err := SplitterAblation(ds, LearnerConfig{}, []Splitter{
			NewSeparatorSplitter(SplitterOptions{}),
			NewNGramSplitter(2, true, SplitterOptions{MinLength: 2, Lowercase: true, DropNumeric: true}),
		})
		if err != nil {
			t.Fatal(err)
		}
		out := SplitterAblationTable(rows).String()
		if !strings.Contains(out, "2-grams(padded)+lower+min2+nonum") {
			t.Errorf("splitter names not rendered: %q", out)
		}
	})
	t.Run("ordering", func(t *testing.T) {
		if out := OrderingAblationTable(OrderingAblation(c)).String(); !strings.Contains(out, "paper") {
			t.Errorf("ordering table: %q", out)
		}
	})
	t.Run("generalization", func(t *testing.T) {
		rows := GeneralizationExperiment(c)
		if out := GeneralizationTable(rows).String(); !strings.Contains(out, "base (leaf rules)") {
			t.Errorf("generalization table: %q", out)
		}
	})
	t.Run("reduction", func(t *testing.T) {
		rows := SpaceReduction(c, PaperBands())
		if out := SpaceReductionTable(rows).String(); !strings.Contains(out, "completeness") {
			t.Errorf("reduction table: %q", out)
		}
	})
	t.Run("blocking", func(t *testing.T) {
		rows := CompareBlocking(c, DefaultBlockingMethods(c))
		if out := BlockingTable(rows).String(); !strings.Contains(out, "canopy") {
			t.Errorf("blocking table missing canopy: %q", out)
		}
	})
	t.Run("holdout", func(t *testing.T) {
		s, err := CrossValidate(ds, LearnerConfig{}, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if out := HoldoutTable(s).String(); !strings.Contains(out, "train (paper protocol)") {
			t.Errorf("holdout table: %q", out)
		}
	})
	t.Run("stats", func(t *testing.T) {
		if out := SectionStatsTable(SectionStats(c)).String(); !strings.Contains(out, "paper") {
			t.Errorf("stats table: %q", out)
		}
	})
}

func TestFacadeKeys(t *testing.T) {
	ds, err := GenerateCorpus(SmallCorpusConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	found := DiscoverKeys(ds.Local, ds.Ontology.Leaves(), KeyConfig{MinDistinctness: 0.9})
	if len(found) == 0 {
		t.Fatal("no keys discovered on the generated catalog")
	}
	sawPN := false
	for _, k := range found {
		if len(k.Properties) == 1 && k.Properties[0] == PartNumberProperty {
			sawPN = true
			bk := KeyBlockingValue(ds.Local, ds.Local.Subjects(RDFType, k.Class)[0], k.Properties)
			if bk == "" {
				t.Error("empty blocking key for a covered instance")
			}
		}
	}
	if !sawPN {
		t.Errorf("partNumber not among discovered keys: %v", found)
	}
}

func TestFacadeRuleInspection(t *testing.T) {
	ts, se, sl, ol, pnProp := buildTinyWorld(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	var ev RuleEvidence
	for _, r := range m.Rules.Rules {
		if r.Segment == "ohm" {
			ev = m.Evidence(r, 0)
		}
	}
	if len(ev.Supporting) != 4 {
		t.Errorf("ohm evidence = %+v", ev)
	}
	cl := NewClassifier(&m.Rules, nil)
	var exp Explanation = cl.Explain(map[Term][]string{pnProp: {"zz-ohm"}})
	if len(exp.Predictions) != 1 {
		t.Errorf("explanation predictions = %v", exp.Predictions)
	}
	if !strings.Contains(exp.String(), "fired rules") {
		t.Errorf("explanation text = %q", exp.String())
	}
}

func TestFacadeGeneralizeModel(t *testing.T) {
	ts, se, sl, ol, _ := buildTinyWorld(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	rs := m.Generalize(ol, GeneralizeOptions{})
	if rs.Len() < m.Rules.Len() {
		t.Errorf("generalized set smaller without ReplaceChildren: %d < %d", rs.Len(), m.Rules.Len())
	}
}

func TestFacadeMeasures(t *testing.T) {
	for _, m := range []Measure{Levenshtein, JaroWinkler, Jaccard, MongeElkan} {
		if got := m.Similarity("same", "same"); got != 1 {
			t.Errorf("%s identity = %v", m.Name(), got)
		}
	}
	res := EvaluateLinks(
		[]Match{{External: NewIRI("http://e"), Local: NewIRI("http://l"), Score: 1}},
		[]Link{{External: NewIRI("http://e"), Local: NewIRI("http://l")}},
	)
	if res.F1() != 1 {
		t.Errorf("F1 = %v", res.F1())
	}
}
