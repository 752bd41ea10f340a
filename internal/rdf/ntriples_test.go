package rdf

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadNTriplesBasic(t *testing.T) {
	input := `
# a comment
<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .
<http://ex.org/s> <http://ex.org/name> "Alice" .

<http://ex.org/s> <http://ex.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/s> <http://ex.org/label> "chaise"@fr .
_:b0 <http://ex.org/p> _:b1 .
`
	g, err := ReadNTriples(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if !g.Has(T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/name"), NewLiteral("Alice"))) {
		t.Error("missing plain literal triple")
	}
	if !g.Has(T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/age"), NewTypedLiteral("30", XSDInteger))) {
		t.Error("missing typed literal triple")
	}
	if !g.Has(T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/label"), NewLangLiteral("chaise", "fr"))) {
		t.Error("missing lang literal triple")
	}
	if !g.Has(T(NewBlank("b0"), NewIRI("http://ex.org/p"), NewBlank("b1"))) {
		t.Error("missing blank node triple")
	}
}

func TestReadNTriplesEscapes(t *testing.T) {
	input := `<http://ex.org/s> <http://ex.org/p> "tab\there\nand \"quotes\" and é and \U0001F600" .` + "\n"
	g, err := ReadNTriples(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	want := "tab\there\nand \"quotes\" and é and \U0001F600"
	objs := g.Objects(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"))
	if len(objs) != 1 || objs[0].Value != want {
		t.Errorf("object = %q, want %q", objs, want)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"missing dot", `<http://s> <http://p> <http://o>`},
		{"unterminated iri", `<http://s <http://p> <http://o> .`},
		{"unterminated literal", `<http://s> <http://p> "abc .`},
		{"literal subject", `"s" <http://p> <http://o> .`},
		{"blank predicate", `<http://s> _:p <http://o> .`},
		{"trailing garbage", `<http://s> <http://p> <http://o> . extra`},
		{"bad unicode escape", `<http://s> <http://p> "\uZZZZ" .`},
		{"empty iri", `<> <http://p> <http://o> .`},
		{"bare word", `hello world .`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadNTriples(strings.NewReader(tc.input))
			if err == nil {
				t.Errorf("ReadNTriples(%q) succeeded, want error", tc.input)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error %v is not a *ParseError", err)
			}
		})
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.Add(T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLiteral("multi\nline \"v\"")))
	g.Add(T(NewBlank("x"), NewIRI("http://ex.org/p"), NewTypedLiteral("3.14", XSDDecimal)))
	g.Add(T(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/q"), NewLangLiteral("hé", "fr")))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	g2, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples(serialized): %v\n%s", err, buf.String())
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round-trip Len = %d, want %d", g2.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !g2.Has(tr) {
			t.Errorf("round-trip lost %v", tr)
		}
	}
}

// Property: any graph built from generated terms survives a write/read
// round trip exactly.
func TestNTriplesRoundTripProperty(t *testing.T) {
	f := func(items []randomTerm) bool {
		g := NewGraph()
		for i, it := range items {
			s := NewIRI("http://ex.org/s" + sanitize(it.Value))
			p := NewIRI("http://ex.org/p")
			o := it.term()
			if i%2 == 0 {
				o = NewLiteral(it.Value) // exercise arbitrary literal content
			}
			g.Add(T(s, p, o))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		g2, err := ReadNTriples(&buf)
		if err != nil {
			return false
		}
		if g2.Len() != g.Len() {
			return false
		}
		for _, tr := range g.Triples() {
			if !g2.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestWriteNTriplesDeterministic(t *testing.T) {
	g := sampleGraph(t)
	var a, b bytes.Buffer
	if err := WriteNTriples(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteNTriples(&b, g); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two serializations of the same graph differ")
	}
}

// errWriter fails after n bytes, for failure-injection tests.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("injected write failure")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("injected write failure")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteNTriplesWriterFailure(t *testing.T) {
	g := sampleGraph(t)
	if err := WriteNTriples(&errWriter{n: 10}, g); err == nil {
		t.Error("write failure not propagated")
	}
}
