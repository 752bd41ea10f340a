// Package ontology models the OWL class hierarchy OL that the local data
// source conforms to. The rule learner needs exactly the operations
// provided here: most-specific classes of an instance, leaf detection,
// subsumption tests, and (for the generalization extension) parent/sibling
// navigation.
//
// The hierarchy is a DAG of named classes under an implicit owl:Thing
// root. Cycles are rejected by Validate. Query methods memoize transitive
// closures; mutation invalidates the memo, so the intended usage is
// build-then-query (which matches the pipeline).
package ontology

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/rdf"
)

// Class identifies an ontology class by IRI term.
type Class = rdf.Term

// Ontology is a mutable class hierarchy with memoized closure queries.
// It is not safe for concurrent mutation; concurrent reads are safe once
// building is finished and Finalize (or any query) has been called.
type Ontology struct {
	nodes map[Class]*node

	// closureValid reports that the nodes' closures are current.
	closureValid bool

	// disjoint holds the declared owl:disjointWith pairs, both ways, so
	// that ToGraph writes back what FromGraph read.
	disjoint map[Class]map[Class]struct{}
}

type node struct {
	parents  map[Class]struct{}
	children map[Class]struct{}
	label    string

	// ancestors and descendants are the memoized closure, sorted.
	ancestors, descendants []Class
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		nodes:    map[Class]*node{},
		disjoint: map[Class]map[Class]struct{}{},
	}
}

// ErrCycle reports that the subClassOf graph is not a DAG.
var ErrCycle = errors.New("ontology: subClassOf cycle")

// AddClass declares a class; it is a no-op if already declared.
func (o *Ontology) AddClass(c Class) {
	if _, ok := o.nodes[c]; ok {
		return
	}
	o.nodes[c] = &node{parents: map[Class]struct{}{}, children: map[Class]struct{}{}}
	o.closureValid = false
}

// SetLabel attaches a human-readable label to a declared class.
func (o *Ontology) SetLabel(c Class, label string) {
	o.AddClass(c)
	o.nodes[c].label = label
}

// Label returns the class label, or the IRI local name if none was set.
func (o *Ontology) Label(c Class) string {
	if n, ok := o.nodes[c]; ok && n.label != "" {
		return n.label
	}
	return LocalName(c)
}

// LocalName extracts the fragment or last path segment of a class IRI.
func LocalName(c Class) string {
	s := c.Value
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' || s[i] == '/' {
			return s[i+1:]
		}
	}
	return s
}

// AddSubClassOf declares sub ⊑ super, declaring both classes as needed.
func (o *Ontology) AddSubClassOf(sub, super Class) {
	if sub == super {
		return
	}
	o.AddClass(sub)
	o.AddClass(super)
	o.nodes[sub].parents[super] = struct{}{}
	o.nodes[super].children[sub] = struct{}{}
	o.closureValid = false
}

// AddDisjoint declares a ⊥ b (symmetric).
func (o *Ontology) AddDisjoint(a, b Class) {
	o.AddClass(a)
	o.AddClass(b)
	if o.disjoint[a] == nil {
		o.disjoint[a] = map[Class]struct{}{}
	}
	if o.disjoint[b] == nil {
		o.disjoint[b] = map[Class]struct{}{}
	}
	o.disjoint[a][b] = struct{}{}
	o.disjoint[b][a] = struct{}{}
}

// FromGraph builds an ontology from the owl:Class, rdfs:subClassOf,
// rdfs:label and owl:disjointWith triples of g.
func FromGraph(g *rdf.Graph) (*Ontology, error) {
	o := New()
	for _, s := range g.Subjects(rdf.TypeTerm, rdf.ClassTerm) {
		if s.IsIRI() {
			o.AddClass(s)
		}
	}
	g.Match(rdf.Term{}, rdf.SubClassOfTerm, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			o.AddSubClassOf(t.S, t.O)
		}
		return true
	})
	g.Match(rdf.Term{}, rdf.DisjointWithTerm, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			o.AddDisjoint(t.S, t.O)
		}
		return true
	})
	g.Match(rdf.Term{}, rdf.LabelTerm, rdf.Term{}, func(t rdf.Triple) bool {
		if _, ok := o.nodes[t.S]; ok && t.O.IsLiteral() {
			o.SetLabel(t.S, t.O.Value)
		}
		return true
	})
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// ToGraph serializes the ontology back to RDF triples.
func (o *Ontology) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	for c, n := range o.nodes {
		g.Add(rdf.T(c, rdf.TypeTerm, rdf.ClassTerm))
		if n.label != "" {
			g.Add(rdf.T(c, rdf.LabelTerm, rdf.NewLiteral(n.label)))
		}
		for p := range n.parents {
			g.Add(rdf.T(c, rdf.SubClassOfTerm, p))
		}
	}
	for a, bs := range o.disjoint {
		for b := range bs {
			g.Add(rdf.T(a, rdf.DisjointWithTerm, b))
		}
	}
	return g
}

// Len returns the number of declared classes.
func (o *Ontology) Len() int { return len(o.nodes) }

// Has reports whether c is declared.
func (o *Ontology) Has(c Class) bool {
	_, ok := o.nodes[c]
	return ok
}

// Parents returns the direct superclasses of c, sorted.
func (o *Ontology) Parents(c Class) []Class {
	n, ok := o.nodes[c]
	if !ok {
		return nil
	}
	return setToSorted(n.parents)
}

// Leaves returns the classes with no subclasses, sorted. These are the
// "most specific classes of the ontology" Algorithm 1 counts over.
func (o *Ontology) Leaves() []Class {
	var out []Class
	for c, n := range o.nodes {
		if len(n.children) == 0 {
			out = append(out, c)
		}
	}
	sortClasses(out)
	return out
}

// IsLeaf reports whether c has no subclasses. Unknown classes are not
// leaves.
func (o *Ontology) IsLeaf(c Class) bool {
	n, ok := o.nodes[c]
	return ok && len(n.children) == 0
}

// Validate checks that the subClassOf graph is acyclic.
func (o *Ontology) Validate() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Class]int, len(o.nodes))
	var visit func(c Class) error
	visit = func(c Class) error {
		switch color[c] {
		case gray:
			return fmt.Errorf("%w involving %s", ErrCycle, c.Value)
		case black:
			return nil
		}
		color[c] = gray
		for p := range o.nodes[c].parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[c] = black
		return nil
	}
	for c := range o.nodes {
		if err := visit(c); err != nil {
			return err
		}
	}
	return nil
}

// buildClosure computes every class's ancestors and descendants as
// sorted slices, by a walk of the parent and of the child edges.
// Classes are numbered in sorted order, so sorting the numbers a walk
// collects sorts its classes.
func (o *Ontology) buildClosure() {
	if o.closureValid {
		return
	}
	classes := make([]Class, 0, len(o.nodes))
	for c := range o.nodes {
		classes = append(classes, c)
	}
	sortClasses(classes)
	num := make(map[Class]int, len(classes))
	for i, c := range classes {
		num[c] = i
	}
	seen := make([]int, len(classes)) // seen[j] == walk: j was collected
	walk := 0
	var found, stack []int
	closure := func(c Class, edges func(*node) map[Class]struct{}) []Class {
		walk++
		found, stack = found[:0], append(stack[:0], num[c])
		for len(stack) > 0 {
			n := o.nodes[classes[stack[len(stack)-1]]]
			stack = stack[:len(stack)-1]
			for e := range edges(n) {
				if j := num[e]; seen[j] != walk {
					seen[j] = walk
					found = append(found, j)
					stack = append(stack, j)
				}
			}
		}
		slices.Sort(found)
		out := make([]Class, len(found))
		for k, j := range found {
			out[k] = classes[j]
		}
		return out
	}
	for _, c := range classes {
		n := o.nodes[c]
		n.ancestors = closure(c, func(n *node) map[Class]struct{} { return n.parents })
		n.descendants = closure(c, func(n *node) map[Class]struct{} { return n.children })
	}
	o.closureValid = true
}

// Finalize precomputes all closures; optional, queries trigger it lazily.
func (o *Ontology) Finalize() { o.buildClosure() }

// Ancestors returns every strict superclass of c (transitively), sorted.
// The slice is shared: callers must not write it.
func (o *Ontology) Ancestors(c Class) []Class {
	n, ok := o.nodes[c]
	if !ok {
		return nil
	}
	o.buildClosure()
	return n.ancestors
}

// Descendants returns every strict subclass of c (transitively), sorted.
// The slice is shared: callers must not write it.
func (o *Ontology) Descendants(c Class) []Class {
	n, ok := o.nodes[c]
	if !ok {
		return nil
	}
	o.buildClosure()
	return n.descendants
}

// Subsumes reports whether sub ⊑ super (reflexive: c subsumes c).
func (o *Ontology) Subsumes(super, sub Class) bool {
	if super == sub {
		return o.Has(super)
	}
	n, ok := o.nodes[sub]
	if !ok {
		return false
	}
	o.buildClosure()
	_, found := slices.BinarySearchFunc(n.ancestors, super, rdf.Term.Compare)
	return found
}

// MostSpecific filters cs down to the classes that are not strict
// ancestors of any other class in cs. Duplicates and unknown classes are
// dropped. The result is sorted.
func (o *Ontology) MostSpecific(cs []Class) []Class {
	o.buildClosure()
	in := make([]Class, 0, len(cs))
	for _, c := range cs {
		if o.Has(c) {
			in = append(in, c)
		}
	}
	sortClasses(in)
	in = slices.Compact(in)
	var out []Class
	for _, c := range in {
		dominated := false
		for _, other := range in {
			if other != c && o.Subsumes(c, other) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// Siblings returns the classes sharing at least one direct parent with c,
// excluding c, sorted. Used by the rule-generalization extension.
func (o *Ontology) Siblings(c Class) []Class {
	n, ok := o.nodes[c]
	if !ok {
		return nil
	}
	set := map[Class]struct{}{}
	for p := range n.parents {
		for ch := range o.nodes[p].children {
			if ch != c {
				set[ch] = struct{}{}
			}
		}
	}
	return setToSorted(set)
}

func setToSorted(set map[Class]struct{}) []Class {
	out := make([]Class, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sortClasses(out)
	return out
}

func sortClasses(cs []Class) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Compare(cs[j]) < 0 })
}
