// Package rdf implements the RDF substrate the linking pipeline runs on: a
// term model (IRIs, literals, blank nodes), triples, an in-memory triple
// store indexed by subject, and readers/writers for N-Triples and a
// Turtle subset.
//
// The package is deliberately self-contained and stdlib-only. Terms are
// small comparable value types so they can be used directly as map keys,
// which the store's index relies on.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRIKind identifies an IRI reference term.
	IRIKind TermKind = iota + 1
	// LiteralKind identifies a literal term (plain, typed or language-tagged).
	LiteralKind
	// BlankKind identifies a blank node term.
	BlankKind
)

// String returns the kind name, for diagnostics.
func (k TermKind) String() string {
	switch k {
	case IRIKind:
		return "IRI"
	case LiteralKind:
		return "Literal"
	case BlankKind:
		return "BlankNode"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// XSDString is the datatype IRI implied by plain literals.
const XSDString = "http://www.w3.org/2001/XMLSchema#string"

// Term is an RDF term. It is a comparable value type: two Terms are equal
// exactly when they denote the same RDF term, so Term can key maps.
//
// Field use by kind:
//
//	IRIKind:     Value = IRI string
//	LiteralKind: Value = lexical form, Datatype = datatype IRI ("" means
//	             xsd:string), Lang = language tag (implies rdf:langString)
//	BlankKind:   Value = blank node label (without the "_:" prefix)
//
// The zero Term is invalid and reports IsZero() == true.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRIKind, Value: iri} }

// NewLiteral returns a plain literal with datatype xsd:string.
func NewLiteral(lexical string) Term {
	return Term{Kind: LiteralKind, Value: lexical}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: LiteralKind, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: LiteralKind, Value: lexical, Lang: lang}
}

// NewBlank returns a blank node with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: BlankKind, Value: label} }

// IsZero reports whether t is the invalid zero Term.
func (t Term) IsZero() bool { return t.Kind == 0 }

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRIKind }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == LiteralKind }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankKind }

// DatatypeIRI returns the effective datatype of a literal: the explicit
// datatype, rdf:langString for language-tagged literals, or xsd:string.
// It returns "" for non-literals.
func (t Term) DatatypeIRI() string {
	if t.Kind != LiteralKind {
		return ""
	}
	if t.Lang != "" {
		return "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
	}
	if t.Datatype == "" {
		return XSDString
	}
	return t.Datatype
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRIKind:
		return "<" + t.Value + ">"
	case BlankKind:
		return "_:" + t.Value
	case LiteralKind:
		var b strings.Builder
		b.WriteByte('"')
		escapeLiteral(&b, t.Value)
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return "<<invalid term>>"
	}
}

// escapeLiteral writes s with N-Triples string escapes applied.
func escapeLiteral(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
}

// Compare orders terms deterministically: by kind (IRI < literal < blank),
// then by value, datatype and language. It returns -1, 0 or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}
