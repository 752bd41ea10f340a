package core

import (
	"repro/internal/ontology"
	"repro/internal/rdf"
)

// GeneralizeOptions tunes the subsumption-based rule generalization, the
// paper's stated future work ("infer more general rules by exploiting the
// semantics of the subsumption between classes of the ontology", §6).
type GeneralizeOptions struct {
	// MinChildRules is the minimum number of sibling leaf rules sharing
	// the same (property, segment) required before their common parent
	// gets a generalized rule; 0 means 2.
	MinChildRules int
	// MinConfidence discards generalized rules below this confidence;
	// 0 keeps all.
	MinConfidence float64
	// ReplaceChildren removes the child rules a generalized rule was
	// built from, producing a more concise rule set; otherwise the
	// generalized rules are added alongside.
	ReplaceChildren bool
}

func (o GeneralizeOptions) withDefaults() GeneralizeOptions {
	if o.MinChildRules == 0 {
		o.MinChildRules = 2
	}
	return o
}

// Generalize lifts learned rules to superclasses: when several rules with
// the same premise (property, segment) conclude on sibling classes, a
// rule concluding on their common parent is synthesized with measures
// recomputed over the retained training index (so its counts are exact,
// not approximations from the children). The returned set is sorted.
func (m *Model) Generalize(ol *ontology.Ontology, opts GeneralizeOptions) RuleSet {
	opts = opts.withDefaults()
	out := RuleSet{}
	if m.index == nil || ol == nil {
		out.Rules = append(out.Rules, m.Rules.Rules...)
		out.Sort()
		return out
	}

	// Group child rules by premise, then by candidate parent class.
	type group struct {
		premise  propertySegment
		parent   rdf.Term
		children map[rdf.Term]struct{}
	}
	groups := map[propertySegment]map[rdf.Term]*group{}
	for _, r := range m.Rules.Rules {
		ps := propertySegment{r.Property, r.Segment}
		for _, parent := range ol.Parents(r.Class) {
			byParent := groups[ps]
			if byParent == nil {
				byParent = map[rdf.Term]*group{}
				groups[ps] = byParent
			}
			g := byParent[parent]
			if g == nil {
				g = &group{premise: ps, parent: parent, children: map[rdf.Term]struct{}{}}
				byParent[parent] = g
			}
			g.children[r.Class] = struct{}{}
		}
	}

	replaced := map[rdf.Term]map[propertySegment]struct{}{}
	var generalized []Rule
	for ps, byParent := range groups {
		for parent, g := range byParent {
			if len(g.children) < opts.MinChildRules {
				continue
			}
			r := m.ruleForClass(ps, parent, ol)
			if r.JointCount == 0 {
				continue
			}
			if opts.MinConfidence > 0 && r.Confidence() < opts.MinConfidence {
				continue
			}
			generalized = append(generalized, r)
			if opts.ReplaceChildren {
				for child := range g.children {
					if replaced[child] == nil {
						replaced[child] = map[propertySegment]struct{}{}
					}
					replaced[child][ps] = struct{}{}
				}
			}
		}
	}

	for _, r := range m.Rules.Rules {
		if set, ok := replaced[r.Class]; ok {
			if _, drop := set[propertySegment{r.Property, r.Segment}]; drop {
				continue
			}
		}
		out.Rules = append(out.Rules, r)
	}
	out.Rules = append(out.Rules, generalized...)
	out.Sort()
	return out
}

// ruleForClass recomputes exact counts for the rule premise ⇒ cls where
// cls may be an inner class: a link satisfies the conclusion when any of
// its most-specific classes is subsumed by cls.
func (m *Model) ruleForClass(ps propertySegment, cls rdf.Term, ol *ontology.Ontology) Rule {
	premise, joint, classCnt := 0, 0, 0
	for _, lf := range m.index.facts {
		inPremise := false
		if set, ok := lf.segs[ps.property]; ok {
			_, inPremise = set[ps.segment]
		}
		inClass := false
		for _, c := range lf.classes {
			if ol.Subsumes(cls, c) {
				inClass = true
				break
			}
		}
		if inPremise {
			premise++
		}
		if inClass {
			classCnt++
		}
		if inPremise && inClass {
			joint++
		}
	}
	return Rule{
		Property:     ps.property,
		Segment:      ps.segment,
		Class:        cls,
		PremiseCount: premise,
		JointCount:   joint,
		ClassCount:   classCnt,
		TSSize:       len(m.index.facts),
		Generalized:  true,
	}
}
