package rdf

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// Property tests for the text codec: random graphs whose terms exercise
// lang tags, datatypes, multi-byte runes, string escapes and blank nodes
// must survive WriteNTriples→ReadNTriples unchanged. The binary codec's
// equivalence test builds on the same generators, so these ground both
// serialization paths.

func TestNTriplesRoundTripRichTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for round := 0; round < 50; round++ {
		g := genGraph(rng, 1+rng.Intn(80))
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("round %d: write: %v", round, err)
		}
		text := buf.String()
		got, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round %d: read: %v\n%s", round, err, text)
		}
		if !graphsEqual(g, got) {
			t.Fatalf("round %d: round trip changed the graph\nwrote:\n%s\nwant %v\ngot  %v",
				round, text, g.Triples(), got.Triples())
		}
	}
}

// edgeObjects are the specific object shapes the fuzzier property tests
// sample from.
var edgeObjects = []struct {
	name string
	o    Term
}{
	{"plain", NewLiteral("simple")},
	{"quotes", NewLiteral(`she said "hi" \ done`)},
	{"newlines", NewLiteral("a\nb\rc\td")},
	{"multibyte", NewLiteral("héllo 日本語 🙂")},
	{"lang", NewLangLiteral("bonjour", "fr")},
	{"lang subtag", NewLangLiteral("servus", "de-AT")},
	{"typed", NewTypedLiteral("2024-01-01", "http://www.w3.org/2001/XMLSchema#date")},
	{"xsd string folds", NewTypedLiteral("x", XSDString)},
	{"blank object", NewBlank("b0")},
	{"empty literal", NewLiteral("")},
}

// edgeGraph holds o under an IRI subject, and a triple with a blank
// subject.
func edgeGraph(o Term) *Graph {
	p := NewIRI("http://ex.org/p")
	g := NewGraph()
	g.Add(T(NewIRI("http://ex.org/s"), p, o))
	g.Add(T(NewBlank("subj"), p, NewLiteral("blank subject")))
	return g
}

// TestTextCodecsEdgeTerms pins the edgeObjects shapes, so a regression
// names the failing shape.
func TestTextCodecsEdgeTerms(t *testing.T) {
	for _, tc := range edgeObjects {
		t.Run(tc.name, func(t *testing.T) {
			g := edgeGraph(tc.o)

			var nt bytes.Buffer
			if err := WriteNTriples(&nt, g); err != nil {
				t.Fatalf("nt write: %v", err)
			}
			fromNT, err := ReadNTriples(bytes.NewReader(nt.Bytes()))
			if err != nil {
				t.Fatalf("nt read: %v\n%s", err, nt.String())
			}
			if !graphsEqual(g, fromNT) {
				t.Errorf("n-triples round trip changed the graph:\n%s", nt.String())
			}
		})
	}
}

// TestReadersRejectInvalidUTF8 feeds the N-Triples reader a statement
// with a byte that is not UTF-8 on its second line. It must fail with a
// *ParseError naming that line and column: a literal holding the byte
// would be written back as U+FFFD.
func TestReadersRejectInvalidUTF8(t *testing.T) {
	input := "<http://ex.org/s> <http://ex.org/p> \"ok\" .\n<0> <0> \"\x80\" .\n"
	_, err := ReadNTriples(strings.NewReader(input))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *ParseError", err)
	}
	if pe.Line != 2 || pe.Col != 10 {
		t.Errorf("error at line %d col %d, want line 2 col 10: %v", pe.Line, pe.Col, err)
	}
}

// TestReadersRejectEscapesThatCannotRoundTrip pins the escapes the
// N-Triples reader rejects because the writer could not put the decoded
// character back out as itself: a surrogate, which is no character, and
// an IRI escape standing for a character that IRIs exclude.
func TestReadersRejectEscapesThatCannotRoundTrip(t *testing.T) {
	for _, stmt := range []string{
		`<http://ex.org/s> <http://ex.org/p> "\uD800" .`,
		`<http://ex.org/s> <http://ex.org/p> "\U0000DFFF" .`,
		`<http://ex.org/a\u003Eb> <http://ex.org/p> "x" .`,
		`<http://ex.org/a\u000Ab> <http://ex.org/p> "x" .`,
		`<http://ex.org/a\u0020b> <http://ex.org/p> "x" .`,
		`<http://ex.org/s> <http://ex.org/p> <http://ex.org/a\u005Cb> .`,
		`<http://ex.org/s> <http://ex.org/p> <http://ex.org/a\tb> .`,
		`<http://ex.org/s> <http://ex.org/p> "x"^^<http://ex.org/a\u003Cb> .`,
	} {
		if _, err := ReadNTriples(strings.NewReader(stmt)); err == nil {
			t.Errorf("ReadNTriples(%q) succeeded, want an error", stmt)
		}
	}
	// An escape for a character IRIs allow still decodes.
	g, err := ReadNTriples(strings.NewReader(`<http://ex.org/caf\u00E9> <http://ex.org/p> "x" .`))
	if err != nil || !g.Has(T(NewIRI("http://ex.org/café"), NewIRI("http://ex.org/p"), NewLiteral("x"))) {
		t.Errorf("an escaped é in an IRI: graph %v, err %v", g, err)
	}
}
