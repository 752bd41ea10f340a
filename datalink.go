// Package datalink is the public API of this repository: a Go
// implementation of "Classification rule learning for data linking"
// (Pernelle & Saïs, LWDM @ EDBT 2012).
//
// The library learns value-based classification rules
//
//	p(X,Y) ∧ subsegment(Y,a) ⇒ c(X)
//
// from expert-validated same-as links between an external RDF source
// (schema unknown) and a local catalog described by an OWL ontology, then
// uses the rules to predict the classes of new external items so a
// linking method only compares them against instances of the predicted
// classes — shrinking the linking space from |SE| × |SL| to a union of
// small, confidence-ranked subspaces.
//
// # Layout
//
// The root package re-exports the stable surface of the internal layers:
//
//   - RDF model and I/O (terms, triples, graphs, N-Triples, Turtle)
//   - ontologies (class hierarchies with subsumption)
//   - rule learning (Algorithm 1 of the paper), classification, linking
//     subspaces and the subsumption-generalization extension
//   - value segmentation (separator and n-gram splitters)
//   - similarity measures and the in-space linking engine
//   - blocking baselines from the paper's related work
//   - the experiment harness regenerating the paper's Table 1 and the
//     Section 5 statistics
//   - the synthetic corpus generator standing in for the proprietary
//     Thales catalog (the internal/datagen package comment gives the
//     substitution argument)
//
// Start with Pipeline for the end-to-end flow (learn, then query a
// Snapshot of it), or see examples/.
package datalink

import (
	"io"

	"repro/internal/ontology"
	"repro/internal/rdf"
)

// Term is an RDF term (IRI, literal or blank node); a comparable value
// type usable as a map key.
type Term = rdf.Term

// Triple is an RDF triple.
type Triple = rdf.Triple

// Graph is an indexed in-memory RDF store.
type Graph = rdf.Graph

// Ontology is a class hierarchy with subsumption and disjointness.
type Ontology = ontology.Ontology

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return rdf.NewIRI(iri) }

// NewLiteral returns a plain literal term.
func NewLiteral(lexical string) Term { return rdf.NewLiteral(lexical) }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return rdf.NewTypedLiteral(lexical, datatype)
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term { return rdf.NewLangLiteral(lexical, lang) }

// NewBlank returns a blank node term.
func NewBlank(label string) Term { return rdf.NewBlank(label) }

// T constructs a triple.
func T(s, p, o Term) Triple { return rdf.T(s, p, o) }

// NewGraph returns an empty graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// ReadNTriples parses N-Triples into a new graph.
func ReadNTriples(r io.Reader) (*Graph, error) { return rdf.ReadNTriples(r) }

// WriteNTriples serializes a graph as N-Triples in deterministic order.
func WriteNTriples(w io.Writer, g *Graph) error { return rdf.WriteNTriples(w, g) }

// ReadTurtle parses the supported Turtle subset into a new graph.
func ReadTurtle(r io.Reader) (*Graph, error) { return rdf.ReadTurtle(r) }

// Well-known vocabulary terms.
var (
	// RDFType is rdf:type.
	RDFType = rdf.TypeTerm
	// RDFSLabel is rdfs:label.
	RDFSLabel = rdf.LabelTerm
	// RDFSSubClassOf is rdfs:subClassOf.
	RDFSSubClassOf = rdf.SubClassOfTerm
	// OWLSameAs is owl:sameAs.
	OWLSameAs = rdf.SameAsTerm
	// OWLClass is owl:Class.
	OWLClass = rdf.ClassTerm
)

// NewOntology returns an empty ontology.
func NewOntology() *Ontology { return ontology.New() }

// OntologyFromGraph builds an ontology from the owl:Class,
// rdfs:subClassOf, rdfs:label and owl:disjointWith triples of g,
// rejecting cyclic hierarchies.
func OntologyFromGraph(g *Graph) (*Ontology, error) { return ontology.FromGraph(g) }
