package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

var (
	pnProp  = iri("partNumber")
	mfProp  = iri("manufacturer")
	clsFFR  = iri("FixedFilmResistor")
	clsWWR  = iri("WirewoundResistor")
	clsTant = iri("TantalumCapacitor")
	clsCer  = iri("CeramicCapacitor")
	clsRes  = iri("Resistor")
	clsCap  = iri("Capacitor")
	clsProd = iri("Product")
)

// testOntology builds Product > {Resistor > {FFR, WWR}, Capacitor > {Tant, Cer}}.
// classFrequency is how many training links carry class c, most
// specific, on their local side.
func classFrequency(m *Model, c rdf.Term) int { return m.index.classOf[c] }

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New()
	o.AddSubClassOf(clsRes, clsProd)
	o.AddSubClassOf(clsCap, clsProd)
	o.AddSubClassOf(clsFFR, clsRes)
	o.AddSubClassOf(clsWWR, clsRes)
	o.AddSubClassOf(clsTant, clsCap)
	o.AddSubClassOf(clsCer, clsCap)
	if err := o.Validate(); err != nil {
		t.Fatalf("ontology: %v", err)
	}
	return o
}

// fixture assembles SE, SL and TS for the hand-checked scenario:
//
//	4 links to FixedFilmResistor; all externals carry segment "ohm",
//	  the first also carries "SMD".
//	3 links to TantalumCapacitor; all carry "T83", two carry "SMD".
//	3 links to CeramicCapacitor; all carry "CER", one carries "SMD".
//
// With th = 0.1 (strict >, so count must be >= 2) the learner must emit
// exactly: ohm⇒FFR (conf 1), T83⇒Tant (conf 1), CER⇒Cer (conf 1),
// SMD⇒Tant (conf 0.5).
func fixture(t testing.TB) (TrainingSet, *rdf.Graph, *rdf.Graph, *ontology.Ontology) {
	t.Helper()
	se := rdf.NewGraph()
	sl := rdf.NewGraph()
	var ts TrainingSet
	add := func(id string, pn string, class rdf.Term) {
		ext := iri("ext/" + id)
		loc := iri("loc/" + id)
		se.Add(rdf.T(ext, pnProp, rdf.NewLiteral(pn)))
		se.Add(rdf.T(ext, mfProp, rdf.NewLiteral("ACME Corp")))
		sl.Add(rdf.T(loc, rdf.TypeTerm, class))
		ts.Links = append(ts.Links, Link{External: ext, Local: loc})
	}
	add("f1", "SMD-ohm-100", clsFFR)
	add("f2", "ohm-221", clsFFR)
	add("f3", "ohm-470k", clsFFR)
	add("f4", "ohm-10", clsFFR)
	add("t1", "T83.SMD.1", clsTant)
	add("t2", "T83.SMD.2", clsTant)
	add("t3", "T83.330", clsTant)
	add("c1", "CER-SMD", clsCer)
	add("c2", "CER-104", clsCer)
	add("c3", "CER-203", clsCer)
	return ts, se, sl, testOntology(t)
}

func findRule(t *testing.T, rs RuleSet, seg string, class rdf.Term) Rule {
	t.Helper()
	for _, r := range rs.Rules {
		if r.Segment == seg && r.Class == class {
			return r
		}
	}
	t.Fatalf("rule %q ⇒ %v not found in %v", seg, class, rs.Rules)
	return Rule{}
}

func TestLearnScenario(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.Rules.Len() != 4 {
		t.Fatalf("rules = %d, want 4:\n%v", m.Rules.Len(), m.Rules.Rules)
	}

	ohm := findRule(t, m.Rules, "ohm", clsFFR)
	if ohm.PremiseCount != 4 || ohm.JointCount != 4 || ohm.ClassCount != 4 || ohm.TSSize != 10 {
		t.Errorf("ohm rule counts = %+v", ohm)
	}
	if ohm.Confidence() != 1 || ohm.Lift() != 2.5 || ohm.Support() != 0.4 {
		t.Errorf("ohm measures: conf=%v lift=%v sup=%v", ohm.Confidence(), ohm.Lift(), ohm.Support())
	}

	smd := findRule(t, m.Rules, "SMD", clsTant)
	if smd.PremiseCount != 4 || smd.JointCount != 2 {
		t.Errorf("SMD rule counts = %+v", smd)
	}
	if smd.Confidence() != 0.5 {
		t.Errorf("SMD confidence = %v", smd.Confidence())
	}

	findRule(t, m.Rules, "T83", clsTant)
	findRule(t, m.Rules, "CER", clsCer)

	// Rules are sorted best-first: every conf-1 rule precedes SMD⇒Tant.
	if m.Rules.Rules[len(m.Rules.Rules)-1].Segment != "SMD" {
		t.Errorf("worst rule should be SMD⇒Tant, got %v", m.Rules.Rules[len(m.Rules.Rules)-1])
	}
}

func TestLearnStats(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	st := m.Stats
	if st.TSSize != 10 {
		t.Errorf("TSSize = %d", st.TSSize)
	}
	// Distinct segments: SMD ohm 100 221 470k 10 T83 1 2 330 CER 104 203 = 13
	if st.DistinctSegments != 13 {
		t.Errorf("DistinctSegments = %d, want 13", st.DistinctSegments)
	}
	// Occurrences: 3+2+2+2+3+3+2+2+2+2 segments over the ten values.
	if st.SegmentOccurrences != 23 {
		t.Errorf("SegmentOccurrences = %d, want 23", st.SegmentOccurrences)
	}
	// Frequent premises: ohm(4), SMD(4), T83(3), CER(3).
	if st.FrequentPairs != 4 {
		t.Errorf("FrequentPairs = %d, want 4", st.FrequentPairs)
	}
	// Selected occurrences = occurrences of those four segments = 4+4+3+3.
	if st.SelectedSegmentOccurrences != 14 {
		t.Errorf("SelectedSegmentOccurrences = %d, want 14", st.SelectedSegmentOccurrences)
	}
	if st.CandidateClasses != 3 || st.FrequentClasses != 3 {
		t.Errorf("classes: candidate=%d frequent=%d, want 3/3", st.CandidateClasses, st.FrequentClasses)
	}
	if st.RuleCount != 4 || st.ClassesWithRules != 3 {
		t.Errorf("RuleCount=%d ClassesWithRules=%d", st.RuleCount, st.ClassesWithRules)
	}
	if st.Properties != 1 {
		t.Errorf("Properties = %d", st.Properties)
	}
}

func TestLearnStrictThreshold(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	// th = 0.2 → minCount = 2, strict > → need >= 3. SMD⇒Tant (2) drops;
	// ohm(4), T83(3), CER(3) survive.
	m, err := Learn(LearnerConfig{SupportThreshold: 0.2, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.Rules.Len() != 3 {
		t.Errorf("rules = %d, want 3 (strict > threshold)", m.Rules.Len())
	}
	for _, r := range m.Rules.Rules {
		if r.Segment == "SMD" {
			t.Errorf("SMD rule must be filtered at th=0.2: %v", r)
		}
	}
}

func TestLearnPropertyDiscovery(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	// No Properties given: learner must discover partNumber AND
	// manufacturer. "ACME" and "Corp" appear on all 10 links under
	// manufacturer, frequent but evenly spread: conf per class <= 0.4,
	// still above th → extra rules appear; the point here is discovery.
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.Stats.Properties != 2 {
		t.Errorf("discovered properties = %d, want 2", m.Stats.Properties)
	}
	foundMf := false
	for _, r := range m.Rules.Rules {
		foundMf = foundMf || r.Property == mfProp
	}
	if !foundMf {
		t.Errorf("no rule used discovered property manufacturer: %v", m.Rules.Rules)
	}
	// Manufacturer rules must rank below the high-confidence partNumber
	// rules — the paper's reason for ignoring manufacturer.
	if best := m.Rules.Rules[0]; best.Property == mfProp {
		t.Errorf("best rule uses manufacturer: %v", best)
	}
}

func TestLearnEmptyTrainingSet(t *testing.T) {
	_, se, sl, ol := fixture(t)
	if _, err := Learn(LearnerConfig{}, TrainingSet{}, se, sl, ol); err != ErrEmptyTrainingSet {
		t.Errorf("err = %v, want ErrEmptyTrainingSet", err)
	}
}

func TestLearnRejectsBadThreshold(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	if _, err := Learn(LearnerConfig{SupportThreshold: 1.5}, ts, se, sl, ol); err == nil {
		t.Error("threshold 1.5 accepted")
	}
	if _, err := Learn(LearnerConfig{SupportThreshold: -0.1}, ts, se, sl, ol); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestLearnRejectsLiteralEndpoints(t *testing.T) {
	_, se, sl, ol := fixture(t)
	bad := TrainingSet{Links: []Link{{External: rdf.NewLiteral("x"), Local: iri("loc/y")}}}
	if _, err := Learn(LearnerConfig{}, bad, se, sl, ol); err == nil {
		t.Error("literal external endpoint accepted")
	}
}

func TestLearnDedupsTS(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	ts.Links = append(ts.Links, ts.Links[0], ts.Links[1]) // duplicates
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.Stats.TSSize != 10 {
		t.Errorf("TSSize = %d, want 10 after dedup", m.Stats.TSSize)
	}
}

func TestLearnMostSpecificClassOnly(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	// Locals additionally typed with ancestor classes: the learner must
	// count only the most-specific class.
	for _, link := range ts.Links {
		for _, c := range []rdf.Term{clsProd, clsRes} {
			sl.Add(rdf.T(link.Local, rdf.TypeTerm, c))
		}
	}
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if classFrequency(m, clsProd) != 0 {
		t.Errorf("Product counted %d times, want 0 (not most specific)", classFrequency(m, clsProd))
	}
	if classFrequency(m, clsFFR) != 4 {
		t.Errorf("FFR frequency = %d, want 4", classFrequency(m, clsFFR))
	}
	// Resistor IS most specific for capacitor links? No — capacitor links
	// have Tant/Cer below Capacitor, and Resistor is incomparable, so it
	// stays. Verify it is counted for the 6 non-resistor links only.
	if got := classFrequency(m, clsRes); got != 6 {
		t.Errorf("Resistor frequency = %d, want 6 (kept where incomparable)", got)
	}
}

func TestModelIntrospection(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	m, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if m.TrainingSize() != 10 {
		t.Errorf("TrainingSize = %d", m.TrainingSize())
	}
	if got := m.TrainingLink(0); got.External != iri("ext/f1") {
		t.Errorf("TrainingLink(0) = %v", got)
	}
	segs := m.SegmentsOf(0, pnProp)
	if len(segs) != 3 {
		t.Errorf("SegmentsOf(0) = %v", segs)
	}
	if got := m.TrueClasses(0); len(got) != 1 || got[0] != clsFFR {
		t.Errorf("TrueClasses(0) = %v", got)
	}
	if got := m.TrueClasses(99); got != nil {
		t.Errorf("TrueClasses(out of range) = %v", got)
	}
	if got := m.SegmentsOf(0, iri("nope")); len(got) != 0 {
		t.Errorf("SegmentsOf(unknown property) = %v", got)
	}
	if got := m.TrainingLink(10); got != (Link{}) {
		t.Errorf("TrainingLink(out of range) = %v", got)
	}
}

// TestModelWithoutTrainingIndex: a Model built from its exported fields,
// as a service serves it, has no training index. Every index accessor,
// Evidence and Generalize must answer without panicking, as for a model
// that learned from no links.
func TestModelWithoutTrainingIndex(t *testing.T) {
	ts, se, sl, ol := fixture(t)
	learned, err := Learn(LearnerConfig{SupportThreshold: 0.1, Properties: []rdf.Term{pnProp}}, ts, se, sl, ol)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	for _, m := range []*Model{{}, {Rules: learned.Rules, Stats: learned.Stats, Config: learned.Config}} {
		if n := m.TrainingSize(); n != 0 {
			t.Errorf("TrainingSize = %d, want 0", n)
		}
		for _, i := range []int{-1, 0, 1} {
			if got := m.TrainingLink(i); got != (Link{}) {
				t.Errorf("TrainingLink(%d) = %v", i, got)
			}
			if got := m.TrueClasses(i); got != nil {
				t.Errorf("TrueClasses(%d) = %v", i, got)
			}
			if got := m.SegmentsOf(i, pnProp); got != nil {
				t.Errorf("SegmentsOf(%d) = %v", i, got)
			}
		}
		for _, r := range m.Rules.Rules {
			if ev := m.Evidence(r, 0); ev.Rule != r || len(ev.Supporting) != 0 || len(ev.Counter) != 0 {
				t.Errorf("Evidence(%v) = %+v, want the rule and no links", r, ev)
			}
		}
		if got := m.Generalize(ol, GeneralizeOptions{}); !slices.Equal(got.Rules, m.Rules.Rules) {
			t.Errorf("Generalize changed the rules of a model with no training index:\ngot  %v\nwant %v", got.Rules, m.Rules.Rules)
		}
	}
}

func TestFromGraphToGraphRoundTrip(t *testing.T) {
	ts, _, _, _ := fixture(t)
	g := ts.ToGraph()
	got := FromGraph(g)
	if got.Len() != ts.Len() {
		t.Fatalf("round-trip Len = %d, want %d", got.Len(), ts.Len())
	}
	want := map[Link]struct{}{}
	for _, l := range ts.Links {
		want[l] = struct{}{}
	}
	for _, l := range got.Links {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected link %v", l)
		}
	}
}

// sortLinks orders links by external, then local term.
func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		if c := ls[i].External.Compare(ls[j].External); c != 0 {
			return c < 0
		}
		return ls[i].Local.Compare(ls[j].Local) < 0
	})
}

func TestSortLinksDeterministic(t *testing.T) {
	links := []Link{
		{External: iri("b"), Local: iri("2")},
		{External: iri("a"), Local: iri("2")},
		{External: iri("a"), Local: iri("1")},
	}
	sortLinks(links)
	if links[0].External != iri("a") || links[0].Local != iri("1") {
		t.Errorf("sortLinks order: %v", links)
	}
}
