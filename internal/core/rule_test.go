package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }

func TestRuleMeasuresKnownValues(t *testing.T) {
	// Of 100 training links: premise fires on 20, 15 of them in class,
	// class holds 25 links total.
	r := Rule{
		Property:     iri("pn"),
		Segment:      "ohm",
		Class:        iri("Resistor"),
		PremiseCount: 20,
		JointCount:   15,
		ClassCount:   25,
		TSSize:       100,
	}
	if got := r.Support(); got != 0.15 {
		t.Errorf("Support = %v, want 0.15", got)
	}
	if got := r.Confidence(); got != 0.75 {
		t.Errorf("Confidence = %v, want 0.75", got)
	}
	if got := r.Lift(); got != 3.0 {
		t.Errorf("Lift = %v, want 3.0", got)
	}
}

func TestRuleMeasuresZeroDenominators(t *testing.T) {
	var r Rule
	if r.Support() != 0 || r.Confidence() != 0 || r.Lift() != 0 {
		t.Error("zero rule must not divide by zero")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Property: iri("partNumber"), Segment: "T83", Class: iri("TantalumCapacitor"),
		PremiseCount: 4, JointCount: 4, ClassCount: 8, TSSize: 40,
	}
	s := r.String()
	for _, want := range []string{"partNumber(X,Y)", `subsegment(Y,"T83")`, "TantalumCapacitor(X)", "conf=1.000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestRuleLessPaperOrdering(t *testing.T) {
	highConf := Rule{PremiseCount: 10, JointCount: 10, ClassCount: 50, TSSize: 100}
	lowConf := Rule{PremiseCount: 10, JointCount: 8, ClassCount: 10, TSSize: 100}
	if !highConf.Less(lowConf) {
		t.Error("higher confidence must order first even with lower lift")
	}
	// Equal confidence: higher lift (rarer class → smaller subspace) first.
	smallClass := Rule{PremiseCount: 10, JointCount: 10, ClassCount: 10, TSSize: 100}
	bigClass := Rule{PremiseCount: 10, JointCount: 10, ClassCount: 50, TSSize: 100}
	if !smallClass.Less(bigClass) {
		t.Error("equal confidence: higher lift must order first")
	}
	// Deterministic total tie-break.
	a := Rule{Property: iri("p"), Segment: "a", Class: iri("C1"), PremiseCount: 2, JointCount: 2, ClassCount: 2, TSSize: 10}
	b := a
	b.Class = iri("C2")
	if !a.Less(b) || b.Less(a) {
		t.Error("identity tie-break not deterministic")
	}
}

func TestRuleSetSortAndBands(t *testing.T) {
	mk := func(joint, premise, class int) Rule {
		return Rule{PremiseCount: premise, JointCount: joint, ClassCount: class, TSSize: 100, Segment: "s", Property: iri("p"), Class: iri("c")}
	}
	rs := &RuleSet{Rules: []Rule{
		mk(5, 10, 10),  // conf 0.5
		mk(10, 10, 10), // conf 1
		mk(9, 10, 10),  // conf 0.9
		mk(7, 10, 10),  // conf 0.7
	}}
	rs.Sort()
	confs := make([]float64, rs.Len())
	for i, r := range rs.Rules {
		confs[i] = r.Confidence()
	}
	for i := 1; i < len(confs); i++ {
		if confs[i] > confs[i-1] {
			t.Fatalf("not sorted desc: %v", confs)
		}
	}
	if got := rs.ConfidenceBand(1, 2); len(got) != 1 {
		t.Errorf("band [1,2) = %d rules, want 1", len(got))
	}
	if got := rs.ConfidenceBand(0.8, 1); len(got) != 1 {
		t.Errorf("band [0.8,1) = %d rules, want 1", len(got))
	}
	if got := rs.ConfidenceBand(0.4, 0.8); len(got) != 2 {
		t.Errorf("band [0.4,0.8) = %d rules, want 2", len(got))
	}
}

func TestAverageLift(t *testing.T) {
	if got := AverageLift(nil); got != 0 {
		t.Errorf("AverageLift(nil) = %v", got)
	}
	rules := []Rule{
		{PremiseCount: 10, JointCount: 10, ClassCount: 10, TSSize: 100}, // lift 10
		{PremiseCount: 10, JointCount: 10, ClassCount: 50, TSSize: 100}, // lift 2
	}
	if got := AverageLift(rules); got != 6 {
		t.Errorf("AverageLift = %v, want 6", got)
	}
}

func TestRuleSetSerializationRoundTrip(t *testing.T) {
	rs := &RuleSet{Rules: []Rule{
		{Property: iri("pn"), Segment: "ohm", Class: iri("R"), PremiseCount: 5, JointCount: 4, ClassCount: 6, TSSize: 50},
		{Property: iri("pn"), Segment: "has\ttab and\nnewline", Class: iri("C"), PremiseCount: 3, JointCount: 3, ClassCount: 3, TSSize: 50, Generalized: true},
		{Property: iri("label"), Segment: `back\slash`, Class: iri("D"), PremiseCount: 2, JointCount: 2, ClassCount: 9, TSSize: 50},
	}}
	var buf bytes.Buffer
	if err := rs.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadRules(&buf)
	if err != nil {
		t.Fatalf("ReadRules: %v", err)
	}
	if got.Len() != rs.Len() {
		t.Fatalf("round-trip Len = %d, want %d", got.Len(), rs.Len())
	}
	for i := range rs.Rules {
		if got.Rules[i] != rs.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, got.Rules[i], rs.Rules[i])
		}
	}
}

func TestReadRulesErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad version", "other/9\n"},
		{"bad fields", "linkrules/1\nonly\tthree\tfields\n"},
		{"bad count", "linkrules/1\np\ts\tc\tx\t1\t1\t1\t0\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadRules(strings.NewReader(tc.input)); err == nil {
				t.Error("want error")
			}
		})
	}
}

// Property: serialization round-trips arbitrary segments exactly.
func TestRuleSerializationProperty(t *testing.T) {
	f := func(seg string, premise, joint uint8) bool {
		p := int(premise) + 1
		j := int(joint) % (p + 1)
		rs := &RuleSet{Rules: []Rule{{
			Property: iri("p"), Segment: seg, Class: iri("c"),
			PremiseCount: p, JointCount: j, ClassCount: j + 1, TSSize: 300,
		}}}
		var buf bytes.Buffer
		if err := rs.Write(&buf); err != nil {
			return false
		}
		got, err := ReadRules(&buf)
		if err != nil || got.Len() != 1 {
			return false
		}
		return got.Rules[0] == rs.Rules[0]
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Less is a strict weak ordering (irreflexive, asymmetric).
func TestRuleLessStrictWeakOrdering(t *testing.T) {
	f := func(j1, p1, c1, j2, p2, c2 uint8) bool {
		mk := func(j, p, c uint8) Rule {
			pp := int(p%20) + 1
			jj := int(j) % (pp + 1)
			cc := int(c%20) + 1
			return Rule{Property: iri("p"), Segment: "s", Class: iri("c"),
				PremiseCount: pp, JointCount: jj, ClassCount: cc, TSSize: 50}
		}
		a, b := mk(j1, p1, c1), mk(j2, p2, c2)
		if a.Less(a) || b.Less(b) {
			return false
		}
		return !(a.Less(b) && b.Less(a))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
