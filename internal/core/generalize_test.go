package core

import (
	"testing"

	"repro/internal/rdf"
)

// generalizeFixture builds a scenario where the premise "RES" appears on
// both resistor leaf classes, so generalization can lift it to Resistor:
//
//	3 links to FFR with part numbers containing "RES"
//	3 links to WWR with part numbers containing "RES"
//	2 links to Tant with "T83"
func generalizeFixture(t testing.TB) *Model {
	t.Helper()
	se := rdf.NewGraph()
	sl := rdf.NewGraph()
	var ts TrainingSet
	add := func(id, pn string, class rdf.Term) {
		ext := iri("ext/" + id)
		loc := iri("loc/" + id)
		se.Add(rdf.T(ext, pnProp, rdf.NewLiteral(pn)))
		sl.Add(rdf.T(loc, rdf.TypeTerm, class))
		ts.Links = append(ts.Links, Link{External: ext, Local: loc})
	}
	add("f1", "RES-100", clsFFR)
	add("f2", "RES-200", clsFFR)
	add("f3", "RES-300", clsFFR)
	add("w1", "RES-510", clsWWR)
	add("w2", "RES-520", clsWWR)
	add("w3", "RES-530", clsWWR)
	add("t1", "T83-1", clsTant)
	add("t2", "T83-2", clsTant)
	// th = 0.2 of 8 links → count must exceed 1.6, so the singleton
	// numeric suffixes are filtered and only RES (6) and T83 (2) remain.
	m, err := Learn(LearnerConfig{SupportThreshold: 0.2, Properties: []rdf.Term{pnProp}}, ts, se, sl, testOntology(t))
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	return m
}

func TestGeneralizeLiftsSiblingRules(t *testing.T) {
	m := generalizeFixture(t)
	ol := testOntology(t)

	// Base rules: RES⇒FFR (conf 0.5), RES⇒WWR (conf 0.5), T83⇒Tant.
	if m.Rules.Len() != 3 {
		t.Fatalf("base rules = %v", m.Rules.Rules)
	}

	gen := m.Generalize(ol, GeneralizeOptions{})
	var parent *Rule
	for i, r := range gen.Rules {
		if r.Class == clsRes && r.Segment == "RES" {
			parent = &gen.Rules[i]
		}
	}
	if parent == nil {
		t.Fatalf("no generalized RES⇒Resistor rule in %v", gen.Rules)
	}
	if !parent.Generalized {
		t.Error("parent rule not marked Generalized")
	}
	// Exact recomputed counts: premise 6, joint 6 (every RES link is a
	// resistor), class 6, TS 8 → conf 1, lift 8/6.
	if parent.PremiseCount != 6 || parent.JointCount != 6 || parent.ClassCount != 6 || parent.TSSize != 8 {
		t.Errorf("parent counts = %+v", *parent)
	}
	if parent.Confidence() != 1 {
		t.Errorf("parent confidence = %v, want 1 (better than either child)", parent.Confidence())
	}
	// Children still present without ReplaceChildren.
	if gen.Len() != 4 {
		t.Errorf("generalized set size = %d, want 4 (3 base + 1 parent)", gen.Len())
	}
}

func TestGeneralizeReplaceChildren(t *testing.T) {
	m := generalizeFixture(t)
	ol := testOntology(t)
	gen := m.Generalize(ol, GeneralizeOptions{ReplaceChildren: true})
	// RES⇒FFR and RES⇒WWR replaced by RES⇒Resistor; T83⇒Tant untouched.
	if gen.Len() != 2 {
		t.Fatalf("replaced set = %v", gen.Rules)
	}
	for _, r := range gen.Rules {
		if r.Class == clsFFR || r.Class == clsWWR {
			t.Errorf("child rule survived replacement: %v", r)
		}
	}
	added := 0
	for _, r := range gen.Rules {
		if r.Generalized {
			added++
		}
	}
	if m.Rules.Len() != 3 || added != 1 {
		t.Errorf("%d base rules, %d parent rules added; want 3 and 1", m.Rules.Len(), added)
	}
}

func TestGeneralizeMinChildRules(t *testing.T) {
	m := generalizeFixture(t)
	ol := testOntology(t)
	// Requiring 3 sibling child rules prevents any lift (only 2 exist).
	gen := m.Generalize(ol, GeneralizeOptions{MinChildRules: 3})
	for _, r := range gen.Rules {
		if r.Generalized {
			t.Errorf("unexpected generalized rule %v", r)
		}
	}
	if gen.Len() != m.Rules.Len() {
		t.Errorf("rule count changed: %d vs %d", gen.Len(), m.Rules.Len())
	}
}

func TestGeneralizeMinConfidence(t *testing.T) {
	m := generalizeFixture(t)
	ol := testOntology(t)
	// The lifted rule has confidence 1, so a 0.9 floor keeps it...
	gen := m.Generalize(ol, GeneralizeOptions{MinConfidence: 0.9})
	found := false
	for _, r := range gen.Rules {
		if r.Generalized {
			found = true
		}
	}
	if !found {
		t.Error("conf-1 generalized rule dropped by 0.9 floor")
	}
	// ...and an impossible floor drops it.
	gen = m.Generalize(ol, GeneralizeOptions{MinConfidence: 1.01})
	for _, r := range gen.Rules {
		if r.Generalized {
			t.Errorf("generalized rule above impossible floor: %v", r)
		}
	}
}

func TestGeneralizeNilOntology(t *testing.T) {
	m := generalizeFixture(t)
	gen := m.Generalize(nil, GeneralizeOptions{})
	if gen.Len() != m.Rules.Len() {
		t.Errorf("nil ontology changed rule count: %d vs %d", gen.Len(), m.Rules.Len())
	}
}

func TestGeneralizedRulesClassifyThroughSubclassInstances(t *testing.T) {
	m := generalizeFixture(t)
	ol := testOntology(t)
	gen := m.Generalize(ol, GeneralizeOptions{ReplaceChildren: true})
	cl := NewClassifier(&gen, m.Config.Splitter)
	preds := cl.ClassifyValues(map[rdf.Term][]string{pnProp: {"RES-999"}})
	if len(preds) != 1 || preds[0].Class != clsRes {
		t.Fatalf("predictions = %v", preds)
	}
	// The Resistor subspace must include both FFR and WWR instances.
	sl := buildCatalog(t, map[rdf.Term]int{clsFFR: 4, clsWWR: 6, clsTant: 5})
	ix := NewInstanceIndex(sl, ol)
	sr := Space(iri("ext/q"), preds, ix)
	if sr.UnionSize != 10 {
		t.Errorf("UnionSize = %d, want 10 (FFR+WWR)", sr.UnionSize)
	}
}
