// Package eval is the experiment harness: it regenerates every
// quantitative result of the paper's Section 5 (Table 1 plus the inline
// corpus statistics) and the extension experiments the linkrules
// command indexes as E3-E7 (space reduction, blocking baselines,
// ablations, rule generalization, held-out evaluation). E8, in-space
// linking, runs on a pipeline in the root package; this package renders
// its rows.
// Each experiment returns typed rows and can render a fixed-width text
// table whose columns mirror the paper's.
package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Corpus bundles a generated dataset with everything learned from it.
type Corpus struct {
	Dataset    *datagen.Dataset
	Model      *core.Model
	Classifier *core.Classifier
	Instances  *core.InstanceIndex
}

// BuildCorpus learns a model over the dataset and prepares the shared
// classifier and instance index. A zero LearnerConfig reproduces the
// paper's settings on the part-number property.
func BuildCorpus(ds *datagen.Dataset, cfg core.LearnerConfig) (*Corpus, error) {
	if len(cfg.Properties) == 0 {
		cfg.Properties = []rdf.Term{datagen.PartNumberProp}
	}
	m, err := core.Learn(cfg, ds.Training, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		return nil, fmt.Errorf("eval: learning: %w", err)
	}
	c := &Corpus{
		Dataset:    ds,
		Model:      m,
		Classifier: core.NewClassifier(&m.Rules, m.Config.Splitter),
		Instances:  core.NewInstanceIndex(ds.Local, ds.Ontology),
	}
	return c, nil
}

// segmentsOf reassembles the per-property segment lists of training link
// i from the model's retained index.
func (c *Corpus) segmentsOf(i int) map[rdf.Term][]string {
	out := map[rdf.Term][]string{}
	for _, p := range c.Classifier.Properties() {
		if segs := c.Model.SegmentsOf(i, p); len(segs) > 0 {
			out[p] = segs
		}
	}
	return out
}

// trueClassOf returns the expert class of training link i (the
// most-specific class of the linked local item); false when the local
// item carries no class.
func (c *Corpus) trueClassOf(i int) (rdf.Term, bool) {
	classes := c.Model.TrueClasses(i)
	if len(classes) == 0 {
		return rdf.Term{}, false
	}
	return classes[0], true
}

// learnablePopulation counts training links whose true class is a
// conclusion class of at least one rule — the recall denominator of
// Table 1 (the items the rule set could possibly classify).
func (c *Corpus) learnablePopulation(rules []core.Rule) int {
	classes := map[rdf.Term]struct{}{}
	for _, r := range rules {
		classes[r.Class] = struct{}{}
	}
	n := 0
	for i := 0; i < c.Model.TrainingSize(); i++ {
		for _, tc := range c.Model.TrueClasses(i) {
			if _, ok := classes[tc]; ok {
				n++
				break
			}
		}
	}
	return n
}
