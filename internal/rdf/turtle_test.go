package rdf

import (
	"strings"
	"testing"
)

func TestReadTurtleBasic(t *testing.T) {
	input := `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:alice a ex:Person ;
    rdfs:label "Alice" ;
    ex:knows ex:bob, ex:carol .

ex:bob ex:age 42 .
ex:carol ex:height 1.70 ;
    ex:active true .
`
	g, err := ReadTurtle(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	exn := func(l string) Term { return NewIRI("http://example.org/" + l) }
	checks := []Triple{
		T(exn("alice"), TypeTerm, exn("Person")),
		T(exn("alice"), LabelTerm, NewLiteral("Alice")),
		T(exn("alice"), exn("knows"), exn("bob")),
		T(exn("alice"), exn("knows"), exn("carol")),
		T(exn("bob"), exn("age"), NewTypedLiteral("42", XSDInteger)),
		T(exn("carol"), exn("height"), NewTypedLiteral("1.70", XSDDecimal)),
		T(exn("carol"), exn("active"), NewTypedLiteral("true", XSDBoolean)),
	}
	for _, tr := range checks {
		if !g.Has(tr) {
			t.Errorf("missing triple %v", tr)
		}
	}
	if g.Len() != len(checks) {
		t.Errorf("Len = %d, want %d", g.Len(), len(checks))
	}
}

func TestReadTurtleSPARQLStyleDirectives(t *testing.T) {
	input := `
PREFIX ex: <http://example.org/>
BASE <http://base.org/>
ex:a ex:p <rel> .
`
	g, err := ReadTurtle(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if !g.Has(T(NewIRI("http://example.org/a"), NewIRI("http://example.org/p"), NewIRI("http://base.org/rel"))) {
		t.Errorf("base resolution failed; triples: %v", g.Triples())
	}
}

func TestReadTurtleLiteralForms(t *testing.T) {
	input := `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:plain "v" ;
  ex:lang "valeur"@fr ;
  ex:typed "12"^^xsd:integer ;
  ex:typedIRI "x"^^<http://ex.org/dt> ;
  ex:long """line1
line2""" ;
  ex:neg -5 ;
  ex:dbl 1.5e3 .
`
	g, err := ReadTurtle(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	s := NewIRI("http://ex.org/s")
	tests := []struct {
		p    string
		want Term
	}{
		{"plain", NewLiteral("v")},
		{"lang", NewLangLiteral("valeur", "fr")},
		{"typed", NewTypedLiteral("12", XSDInteger)},
		{"typedIRI", NewTypedLiteral("x", "http://ex.org/dt")},
		{"long", NewLiteral("line1\nline2")},
		{"neg", NewTypedLiteral("-5", XSDInteger)},
		{"dbl", NewTypedLiteral("1.5e3", XSDDouble)},
	}
	for _, tc := range tests {
		objs := g.Objects(s, NewIRI("http://ex.org/"+tc.p))
		if len(objs) != 1 || objs[0] != tc.want {
			t.Errorf("property %s: got %v, want %v", tc.p, objs, tc.want)
		}
	}
}

func TestReadTurtleBlankNodes(t *testing.T) {
	input := `
@prefix ex: <http://ex.org/> .
_:a ex:p _:b .
ex:s ex:addr [ ex:city "Paris" ; ex:zip "75005" ] .
ex:t ex:empty [] .
`
	g, err := ReadTurtle(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if !g.Has(T(NewBlank("a"), NewIRI("http://ex.org/p"), NewBlank("b"))) {
		t.Error("labeled blank node triple missing")
	}
	// The anonymous node must carry both city and zip.
	addrs := g.Objects(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/addr"))
	if len(addrs) != 1 || !addrs[0].IsBlank() {
		t.Fatalf("addr objects = %v", addrs)
	}
	city := g.Objects(addrs[0], NewIRI("http://ex.org/city"))
	if len(city) != 1 || city[0].Value != "Paris" {
		t.Errorf("city = %v", city)
	}
	empties := g.Objects(NewIRI("http://ex.org/t"), NewIRI("http://ex.org/empty"))
	if len(empties) != 1 || !empties[0].IsBlank() {
		t.Errorf("empty bnode objects = %v", empties)
	}
}

// anonAfterLabelled labels a blank node gen1 and then writes an
// anonymous one, which the reader used to label gen1 as well.
const anonAfterLabelled = `_:gen1 <http://p> "a" . [] <http://p> "b" .`

// TestReadTurtleAnonymousNodesStayApart: an anonymous blank node never
// takes a label the document writes, before or after it, so it never
// merges with a labelled node.
func TestReadTurtleAnonymousNodesStayApart(t *testing.T) {
	for _, input := range []string{
		anonAfterLabelled,
		`[] <http://p> "b" . _:gen1 <http://p> "a" .`,
		`_:gen1 <http://p> "a" . _:gen2 <http://p> "c" . [] <http://p> "b" . [] <http://p> "d" .`,
	} {
		g, err := ReadTurtle(strings.NewReader(input))
		if err != nil {
			t.Fatalf("ReadTurtle(%q): %v", input, err)
		}
		if subjects, triples := len(g.AllSubjects()), g.Len(); subjects != triples {
			t.Errorf("ReadTurtle(%q): %d subjects for %d triples, want one each: %v", input, subjects, triples, g.Triples())
		}
	}
}

func TestReadTurtleComments(t *testing.T) {
	input := `
@prefix ex: <http://ex.org/> . # trailing comment
# full line comment
ex:s ex:p ex:o . # another
`
	g, err := ReadTurtle(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTurtle: %v", err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestReadTurtleErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"undeclared prefix", `ex:s ex:p ex:o .`},
		{"missing dot", `@prefix ex: <http://ex.org/> . ex:s ex:p ex:o`},
		{"unterminated literal", `@prefix ex: <http://e/> . ex:s ex:p "x .`},
		{"unterminated iri", `<http://s ex:p ex:o .`},
		{"bad directive", `@prefix ex <http://ex.org/> .`},
		{"unterminated bnode list", `@prefix ex: <http://e/> . ex:s ex:p [ ex:q "v" .`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTurtle(strings.NewReader(tc.input)); err == nil {
				t.Errorf("ReadTurtle(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestReadTurtleErrorPosition(t *testing.T) {
	input := "@prefix ex: <http://e/> .\nex:s ex:p \"x .\n"
	_, err := ReadTurtle(strings.NewReader(input))
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T, want *ParseError", err)
	}
	if pe.Line < 2 {
		t.Errorf("error line = %d, want >= 2", pe.Line)
	}
}
