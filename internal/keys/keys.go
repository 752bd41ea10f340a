// Package keys discovers (almost-)key constraints in the local catalog:
// property combinations whose values uniquely identify instances within
// a class. The paper's related work uses such keys to partition the
// linking space ([Baxter et al.], [Yan et al.]) — and notes that the
// approach fails when the external schema is unknown; discovering the
// catalog-side keys makes that comparison concrete and gives the linking
// engine a principled choice of blocking attribute.
//
// Discovery is levelwise: single properties first, then pairs, with the
// standard pruning that any superset of a key is itself a key and
// therefore redundant.
package keys

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Key is one discovered (almost-)key for a class.
type Key struct {
	Class      rdf.Term
	Properties []rdf.Term
	// Coverage is the fraction of the class's instances carrying values
	// for every property of the key.
	Coverage float64
	// Distinctness is distinct value combinations / covered instances;
	// 1 means a perfect key over the covered instances.
	Distinctness float64
	// Supported is the number of covered instances.
	Supported int
}

// String renders the key for reports.
func (k Key) String() string {
	names := make([]string, len(k.Properties))
	for i, p := range k.Properties {
		names[i] = localName(p)
	}
	return fmt.Sprintf("key(%s){%s} coverage=%.2f distinctness=%.3f",
		localName(k.Class), strings.Join(names, ","), k.Coverage, k.Distinctness)
}

func localName(t rdf.Term) string {
	s := t.Value
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' || s[i] == '/' {
			return s[i+1:]
		}
	}
	return s
}

// Config tunes discovery.
type Config struct {
	// MaxArity bounds the number of properties per key; 0 means 2.
	MaxArity int
	// MinCoverage drops keys defined on too few instances; 0 means 0.8.
	MinCoverage float64
	// MinDistinctness is the "almost key" bar; 0 means 0.99.
	MinDistinctness float64
	// MinInstances skips classes with fewer instances (keys over tiny
	// classes are vacuous); 0 means 5.
	MinInstances int
}

func (c Config) withDefaults() Config {
	if c.MaxArity == 0 {
		c.MaxArity = 2
	}
	if c.MinCoverage == 0 {
		c.MinCoverage = 0.8
	}
	if c.MinDistinctness == 0 {
		c.MinDistinctness = 0.99
	}
	if c.MinInstances == 0 {
		c.MinInstances = 5
	}
	return c
}

// Discover finds minimal (almost-)keys per class over the literal-valued
// properties of sl. Classes lists the classes to analyze (typically the
// ontology's leaves); nil means every class with typed instances.
func Discover(sl *rdf.Graph, classes []rdf.Term, cfg Config) []Key {
	cfg = cfg.withDefaults()
	// One walk over the rdf:type triples groups the instances by class.
	instances := map[rdf.Term][]rdf.Term{}
	sl.Match(rdf.Term{}, rdf.TypeTerm, rdf.Term{}, func(t rdf.Triple) bool {
		instances[t.O] = append(instances[t.O], t.S)
		return true
	})
	if classes == nil {
		for c := range instances {
			if c != rdf.ClassTerm {
				classes = append(classes, c)
			}
		}
		slices.SortFunc(classes, rdf.Term.Compare)
	}

	var out []Key
	for _, class := range classes {
		insts := instances[class]
		slices.SortFunc(insts, rdf.Term.Compare)
		out = append(out, discoverForClass(sl, class, insts, cfg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Class.Compare(out[j].Class); c != 0 {
			return c < 0
		}
		if len(out[i].Properties) != len(out[j].Properties) {
			return len(out[i].Properties) < len(out[j].Properties)
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// discoverForClass finds the keys of one class, given its instances
// sorted.
func discoverForClass(sl *rdf.Graph, class rdf.Term, instances []rdf.Term, cfg Config) []Key {
	if len(instances) < cfg.MinInstances {
		return nil
	}
	// Collect literal-valued properties of the class's instances.
	propSet := map[rdf.Term]struct{}{}
	values := map[rdf.Term]map[rdf.Term][]string{} // instance -> property -> values
	for _, inst := range instances {
		values[inst] = map[rdf.Term][]string{}
		sl.Match(inst, rdf.Term{}, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				propSet[t.P] = struct{}{}
				values[inst][t.P] = append(values[inst][t.P], t.O.Value)
			}
			return true
		})
	}
	props := make([]rdf.Term, 0, len(propSet))
	for p := range propSet {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i].Compare(props[j]) < 0 })

	evaluate := func(combo []rdf.Term) (Key, bool) {
		covered := 0
		combos := map[string]struct{}{}
		for _, inst := range instances {
			parts := make([]string, 0, len(combo))
			ok := true
			for _, p := range combo {
				vs := values[inst][p]
				if len(vs) == 0 {
					ok = false
					break
				}
				sort.Strings(vs)
				parts = append(parts, strings.Join(vs, "\x1e"))
			}
			if !ok {
				continue
			}
			covered++
			combos[strings.Join(parts, "\x1f")] = struct{}{}
		}
		if covered == 0 {
			return Key{}, false
		}
		k := Key{
			Class:        class,
			Properties:   append([]rdf.Term(nil), combo...),
			Coverage:     float64(covered) / float64(len(instances)),
			Distinctness: float64(len(combos)) / float64(covered),
			Supported:    covered,
		}
		pass := k.Coverage >= cfg.MinCoverage && k.Distinctness >= cfg.MinDistinctness
		return k, pass
	}

	var found []Key
	isKeyProp := map[rdf.Term]bool{}
	for _, p := range props {
		if k, ok := evaluate([]rdf.Term{p}); ok {
			found = append(found, k)
			isKeyProp[p] = true
		}
	}
	if cfg.MaxArity >= 2 {
		for i := 0; i < len(props); i++ {
			if isKeyProp[props[i]] {
				continue // supersets of keys are redundant
			}
			for j := i + 1; j < len(props); j++ {
				if isKeyProp[props[j]] {
					continue
				}
				if k, ok := evaluate([]rdf.Term{props[i], props[j]}); ok {
					found = append(found, k)
				}
			}
		}
	}
	return found
}
