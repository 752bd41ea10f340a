package rdf

// Well-known vocabulary IRIs used across the pipeline. Keeping them here
// avoids scattering string constants through the higher layers.
const (
	// RDF namespace.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

	// RDFS namespace.
	RDFSLabel      = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSComment    = "http://www.w3.org/2000/01/rdf-schema#comment"

	// OWL namespace.
	OWLClass        = "http://www.w3.org/2002/07/owl#Class"
	OWLSameAs       = "http://www.w3.org/2002/07/owl#sameAs"
	OWLDisjointWith = "http://www.w3.org/2002/07/owl#disjointWith"
	OWLThing        = "http://www.w3.org/2002/07/owl#Thing"

	// XSD datatypes beyond xsd:string (declared in term.go).
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Convenience terms for the vocabulary above.
var (
	TypeTerm         = NewIRI(RDFType)
	LabelTerm        = NewIRI(RDFSLabel)
	SubClassOfTerm   = NewIRI(RDFSSubClassOf)
	ClassTerm        = NewIRI(OWLClass)
	SameAsTerm       = NewIRI(OWLSameAs)
	DisjointWithTerm = NewIRI(OWLDisjointWith)
	ThingTerm        = NewIRI(OWLThing)
)

// TypesOf returns the classes asserted for subject s via rdf:type, sorted.
func (g *Graph) TypesOf(s Term) []Term { return g.Objects(s, TypeTerm) }
