package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

// parallelFixture builds a corpus big enough that the learning passes
// genuinely fan out (hundreds of links across many chunks), with enough
// segment/class diversity that every counting map has real contention
// for a buggy implementation to scramble.
func parallelFixture(t testing.TB, n int) (TrainingSet, *rdf.Graph, *rdf.Graph, *ontology.Ontology) {
	t.Helper()
	se := rdf.NewGraph()
	sl := rdf.NewGraph()
	classes := []rdf.Term{clsFFR, clsWWR, clsTant, clsCer, clsRes, clsCap}
	markers := []string{"ohm", "T83", "CER", "SMD", "AXIAL", "X7R", "WW"}
	var ts TrainingSet
	for i := 0; i < n; i++ {
		ext := iri(fmt.Sprintf("ext/p%d", i))
		loc := iri(fmt.Sprintf("loc/p%d", i))
		pn := fmt.Sprintf("%s-%s.%d", markers[i%len(markers)], markers[(i/3)%len(markers)], i%29)
		se.Add(rdf.T(ext, pnProp, rdf.NewLiteral(pn)))
		se.Add(rdf.T(ext, mfProp, rdf.NewLiteral(fmt.Sprintf("Maker %d Corp", i%11))))
		sl.Add(rdf.T(loc, rdf.TypeTerm, classes[i%len(classes)]))
		if i%5 == 0 {
			sl.Add(rdf.T(loc, rdf.TypeTerm, classes[(i+1)%len(classes)]))
		}
		ts.Links = append(ts.Links, Link{External: ext, Local: loc})
	}
	return ts, se, sl, testOntology(t)
}

// ruleBytes serializes a model's rule set, the byte-identity witness.
func ruleBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Rules.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLearnDeterministicAcrossWorkers pins the tentpole guarantee: the
// learned rules are byte-identical and the statistics equal at every
// worker count. Run under -race this also exercises the fan-out for
// data races.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	ts, se, sl, ol := parallelFixture(t, 600)
	cfg := LearnerConfig{SupportThreshold: 0.01, Workers: 1}
	want, err := LearnCtx(context.Background(), cfg, ts, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rules.Len() == 0 {
		t.Fatal("fixture learned no rules; the determinism check would be vacuous")
	}
	wantBytes := ruleBytes(t, want)
	for _, workers := range []int{4, 16} {
		cfg.Workers = workers
		got, err := LearnCtx(context.Background(), cfg, ts, se, sl, ol)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ruleBytes(t, got), wantBytes) {
			t.Errorf("Workers=%d: rule set differs from Workers=1", workers)
		}
		if got.Stats != want.Stats {
			t.Errorf("Workers=%d: stats differ: got %+v, want %+v", workers, got.Stats, want.Stats)
		}
	}
}

// TestLearnCtxCancellation asserts a cancelled context aborts learning
// promptly with ctx's error and no partial model, on both the serial
// and parallel paths.
func TestLearnCtxCancellation(t *testing.T) {
	ts, se, sl, ol := parallelFixture(t, 600)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m, err := LearnCtx(ctx, LearnerConfig{SupportThreshold: 0.01, Workers: workers}, ts, se, sl, ol)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if m != nil {
			t.Fatalf("Workers=%d: got a model despite cancellation", workers)
		}
	}
}

// TestLearnWorkersNotPartOfIdentity documents that Workers is a pure
// wall-time knob: configs differing only in Workers learn equal models,
// which is what lets the durable layer exclude it from the persisted
// learner identity.
func TestLearnWorkersNotPartOfIdentity(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	a, err := Learn(LearnerConfig{SupportThreshold: 0.1, Workers: 1}, ts, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Learn(LearnerConfig{SupportThreshold: 0.1, Workers: 7}, ts, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ruleBytes(t, a), ruleBytes(t, b)) {
		t.Fatal("models differ across Workers settings")
	}
}
