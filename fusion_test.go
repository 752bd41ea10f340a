package datalink

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestPublicAPIFusion(t *testing.T) {
	pn := NewIRI("http://ex.org/pn")
	ext := NewIRI("http://provider/x")
	loc := NewIRI("http://catalog/x")
	se := NewGraph()
	sl := NewGraph()
	se.Add(T(ext, pn, NewLiteral("AB-1")))
	sl.Add(T(loc, pn, NewLiteral("AB.1")))

	ents := Fuse([][2]Term{{ext, loc}}, se, sl, FusionConfig{Default: FuseUnion})
	if len(ents) != 1 {
		t.Fatalf("entities = %d", len(ents))
	}
	if got := len(ents[0].Properties[pn]); got != 2 {
		t.Errorf("union values = %d, want 2", got)
	}
	g := FusedToGraph(ents)
	if !g.Has(T(ext, OWLSameAs, loc)) {
		t.Error("sameAs missing in fused graph")
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if got, want := back.Triples(), g.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the fused graph:\ngot  %v\nwant %v", got, want)
	}
}

// TestClassifierConcurrentUse exercises the documented concurrency
// contract: a built classifier may serve many goroutines.
func TestClassifierConcurrentUse(t *testing.T) {
	ts, se, sl, ol, pnProp := buildTinyWorld(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	cl := NewClassifier(&m.Rules, m.Config.Splitter)
	values := []map[Term][]string{
		{pnProp: {"xx-ohm-zz"}}, // only "ohm" is a known segment
		{pnProp: {"T83 yy"}},
		{pnProp: {"nothing here"}},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				preds := cl.ClassifyValues(values[i%len(values)])
				switch i % len(values) {
				case 0:
					if len(preds) != 1 || preds[0].Class != NewIRI("http://ex.org/Resistor") {
						errs <- "ohm misclassified"
						return
					}
				case 1:
					if len(preds) != 1 || preds[0].Class != NewIRI("http://ex.org/Capacitor") {
						errs <- "T83 misclassified"
						return
					}
				default:
					if preds != nil {
						errs <- "phantom prediction"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestExperimentTableCSV(t *testing.T) {
	ds, err := GenerateCorpus(SmallCorpusConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCorpus(ds, LearnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table1Table(Table1(c, PaperBands()))
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 bands
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "conf.,#rules,#dec.,prec.,recall,lift" {
		t.Errorf("csv header = %q", lines[0])
	}
}
