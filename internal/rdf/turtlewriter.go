package rdf

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// TurtleWriterOptions configures WriteTurtle.
type TurtleWriterOptions struct {
	// Prefixes maps prefix names to namespace IRIs; matching IRIs are
	// compacted to prefixed names. Nil uses DefaultPrefixes.
	Prefixes map[string]string
}

// DefaultPrefixes returns the common namespaces used by this repository.
func DefaultPrefixes() map[string]string {
	return map[string]string{
		"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
		"owl":  "http://www.w3.org/2002/07/owl#",
		"xsd":  "http://www.w3.org/2001/XMLSchema#",
	}
}

// WriteTurtle serializes the graph as Turtle: prefix directives, one
// block per subject with ';'-separated predicates and ','-separated
// objects, in deterministic order. The output parses back with
// ReadTurtle.
func WriteTurtle(w io.Writer, g *Graph, opts TurtleWriterOptions) error {
	prefixes := opts.Prefixes
	if prefixes == nil {
		prefixes = DefaultPrefixes()
	}
	// Longest-namespace-first matching so nested namespaces compact to
	// the most specific prefix.
	type ns struct{ name, iri string }
	nss := make([]ns, 0, len(prefixes))
	for name, iri := range prefixes {
		nss = append(nss, ns{name, iri})
	}
	sort.Slice(nss, func(i, j int) bool {
		if len(nss[i].iri) != len(nss[j].iri) {
			return len(nss[i].iri) > len(nss[j].iri)
		}
		return nss[i].name < nss[j].name
	})

	compact := func(t Term) string {
		switch t.Kind {
		case IRIKind:
			for _, n := range nss {
				if local, ok := strings.CutPrefix(t.Value, n.iri); ok && isTurtleLocalName(local) {
					return n.name + ":" + local
				}
			}
			return t.String()
		case LiteralKind:
			if t.Datatype != "" {
				for _, n := range nss {
					if local, ok := strings.CutPrefix(t.Datatype, n.iri); ok && isTurtleLocalName(local) {
						var b strings.Builder
						b.WriteByte('"')
						escapeLiteral(&b, t.Value)
						b.WriteString(`"^^`)
						b.WriteString(n.name + ":" + local)
						return b.String()
					}
				}
			}
			return t.String()
		default:
			return t.String()
		}
	}

	// "a" is only legal in predicate position.
	compactPred := func(t Term) string {
		if t.Value == RDFType {
			return "a"
		}
		return compact(t)
	}

	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(prefixes))
	for name := range prefixes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(bw, "@prefix %s: <%s> .\n", name, prefixes[name]); err != nil {
			return fmt.Errorf("rdf: writing turtle: %w", err)
		}
	}

	subjects := g.AllSubjects()
	for _, s := range subjects {
		if _, err := fmt.Fprintf(bw, "\n%s", compact(s)); err != nil {
			return fmt.Errorf("rdf: writing turtle: %w", err)
		}
		preds := make([]Term, 0, 4)
		seen := map[Term]struct{}{}
		g.Match(s, Term{}, Term{}, func(t Triple) bool {
			if _, dup := seen[t.P]; !dup {
				seen[t.P] = struct{}{}
				preds = append(preds, t.P)
			}
			return true
		})
		slices.SortFunc(preds, Term.Compare)
		// rdf:type first, by Turtle convention.
		for i, p := range preds {
			if p == TypeTerm && i != 0 {
				copy(preds[1:i+1], preds[:i])
				preds[0] = TypeTerm
				break
			}
		}
		for pi, p := range preds {
			sep := " ;"
			if pi == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(bw, "%s\n    %s ", sep, compactPred(p)); err != nil {
				return fmt.Errorf("rdf: writing turtle: %w", err)
			}
			objs := g.Objects(s, p)
			for oi, o := range objs {
				if oi > 0 {
					if _, err := bw.WriteString(", "); err != nil {
						return fmt.Errorf("rdf: writing turtle: %w", err)
					}
				}
				if _, err := bw.WriteString(compact(o)); err != nil {
					return fmt.Errorf("rdf: writing turtle: %w", err)
				}
			}
		}
		if _, err := bw.WriteString(" .\n"); err != nil {
			return fmt.Errorf("rdf: writing turtle: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("rdf: writing turtle: %w", err)
	}
	return nil
}

// isTurtleLocalName reports whether local can follow a prefix without
// escaping under this package's reader (conservative PN_LOCAL subset).
func isTurtleLocalName(local string) bool {
	if local == "" {
		return false
	}
	for i := 0; i < len(local); i++ {
		if !isPNChar(local[i]) {
			return false
		}
	}
	// The reader treats '.' as a statement terminator risk at the end.
	return local[len(local)-1] != '.'
}
