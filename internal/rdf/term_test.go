package rdf

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("http://ex.org/a"), IRIKind, "<http://ex.org/a>"},
		{"plain literal", NewLiteral("hello"), LiteralKind, `"hello"`},
		{"typed literal", NewTypedLiteral("42", XSDInteger), LiteralKind, `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"lang literal", NewLangLiteral("chat", "fr"), LiteralKind, `"chat"@fr`},
		{"blank", NewBlank("b1"), BlankKind, "_:b1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
			if tc.term.IsZero() {
				t.Error("constructed term reports IsZero")
			}
		})
	}
}

func TestTypedLiteralXSDStringNormalized(t *testing.T) {
	a := NewTypedLiteral("x", XSDString)
	b := NewLiteral("x")
	if a != b {
		t.Errorf("xsd:string typed literal %v should equal plain literal %v", a, b)
	}
}

func TestTermStringEscaping(t *testing.T) {
	lit := NewLiteral("line1\nline2\t\"quoted\"\\slash")
	want := `"line1\nline2\t\"quoted\"\\slash"`
	if got := lit.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTermCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewIRI("http://b"), NewIRI("http://a"),
		NewLiteral("z"), NewLiteral("a"),
		NewTypedLiteral("a", XSDInteger),
		NewLangLiteral("a", "en"), NewLangLiteral("a", "de"),
		NewBlank("x"), NewBlank("a"),
	}
	sorted := append([]Term(nil), terms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	// IRIs first, then literals, then blanks.
	if !sorted[0].IsIRI() || !sorted[1].IsIRI() {
		t.Fatalf("IRIs must sort first: %v", sorted)
	}
	if sorted[len(sorted)-1].Kind != BlankKind {
		t.Fatalf("blanks must sort last: %v", sorted)
	}
	for i := range sorted {
		if sorted[i].Compare(sorted[i]) != 0 {
			t.Errorf("Compare(self) != 0 for %v", sorted[i])
		}
	}
}

func TestTermCompareAntisymmetry(t *testing.T) {
	f := func(a, b randomTerm) bool {
		x, y := a.term(), b.term()
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestTripleValidate(t *testing.T) {
	iri := NewIRI("http://ex.org/s")
	lit := NewLiteral("v")
	blank := NewBlank("b")
	tests := []struct {
		name    string
		triple  Triple
		wantErr bool
	}{
		{"valid iri subject", T(iri, iri, lit), false},
		{"valid blank subject", T(blank, iri, iri), false},
		{"literal subject", T(lit, iri, lit), true},
		{"blank predicate", T(iri, blank, lit), true},
		{"literal predicate", T(iri, lit, lit), true},
		{"zero object", Triple{S: iri, P: iri}, true},
		{"zero subject", Triple{P: iri, O: lit}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.triple.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestTripleString(t *testing.T) {
	tr := T(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	want := `<http://s> <http://p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// randomTerm generates arbitrary valid terms for quick checks.
type randomTerm struct {
	Kind  uint8
	Value string
	Extra string
}

func (r randomTerm) term() Term {
	v := sanitize(r.Value)
	switch r.Kind % 4 {
	case 0:
		return NewIRI("http://ex.org/" + v)
	case 1:
		return NewLiteral(r.Value)
	case 2:
		lang := "en"
		if len(r.Extra)%2 == 0 {
			lang = "fr"
		}
		return NewLangLiteral(r.Value, lang)
	default:
		return NewBlank("b" + v)
	}
}

// sanitize maps arbitrary strings onto IRI/blank-safe alphanumerics.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return "x"
	}
	return string(out)
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(42)),
	}
}
