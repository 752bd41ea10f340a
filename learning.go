package datalink

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/segment"
)

// Link is one validated same-as link (external item, local item).
type Link = core.Link

// TrainingSet is the expert link set TS the rules are learned from.
type TrainingSet = core.TrainingSet

// Rule is one learned classification rule with its counts; Support,
// Confidence and Lift derive from them.
type Rule = core.Rule

// RuleSet is an ordered rule collection with the paper's ranking
// (confidence desc, then lift desc).
type RuleSet = core.RuleSet

// LearnerConfig parameterizes Algorithm 1; the zero value reproduces the
// paper's defaults (all literal properties, non-alphanumeric separator
// splitting, support threshold 0.002).
type LearnerConfig = core.LearnerConfig

// Model is a learning result: rules, corpus statistics and the retained
// index used by evaluation and generalization.
type Model = core.Model

// LearnStats reports corpus-level counters of a learning run.
type LearnStats = core.LearnStats

// Classifier applies a rule set to external items.
type Classifier = core.Classifier

// Prediction is a predicted class justified by its best rule.
type Prediction = core.Prediction

// InstanceIndex resolves classes to catalog instance sets (including
// subclass instances).
type InstanceIndex = core.InstanceIndex

// Subspace is one rule's linking subspace for one item.
type Subspace = core.Subspace

// SpaceReport aggregates an item's subspaces and its space reduction.
type SpaceReport = core.SpaceReport

// GeneralizeOptions tunes the subsumption-based rule generalization.
type GeneralizeOptions = core.GeneralizeOptions

// Splitter decomposes property values into segments.
type Splitter = segment.Splitter

// SplitterOptions configures normalization shared by splitters.
type SplitterOptions = segment.Options

// Learn runs Algorithm 1: se supplies property facts of external items,
// sl the rdf:type facts of local items, ol the ontology for
// most-specific-class reduction.
func Learn(cfg LearnerConfig, ts TrainingSet, se, sl *Graph, ol *Ontology) (*Model, error) {
	return core.Learn(cfg, ts, se, sl, ol)
}

// LearnCtx is Learn with cancellation and parallelism: the learning
// passes fan out over cfg.Workers goroutines (0 = GOMAXPROCS) and stop
// promptly when ctx is cancelled, returning ctx's error and no model.
// The learned model is byte-identical at every worker count.
func LearnCtx(ctx context.Context, cfg LearnerConfig, ts TrainingSet, se, sl *Graph, ol *Ontology) (*Model, error) {
	return core.LearnCtx(ctx, cfg, ts, se, sl, ol)
}

// TrainingSetFromGraph extracts a training set from owl:sameAs triples
// (subject = external, object = local).
func TrainingSetFromGraph(g *Graph) TrainingSet { return core.FromGraph(g) }

// NewClassifier indexes a rule set for classification; the splitter must
// match the one used at learning time (nil = paper default).
func NewClassifier(rs *RuleSet, sp Splitter) *Classifier { return core.NewClassifier(rs, sp) }

// NewInstanceIndex scans the catalog's rdf:type triples.
func NewInstanceIndex(sl *Graph, ol *Ontology) *InstanceIndex {
	return core.NewInstanceIndex(sl, ol)
}

// Space computes the ranked linking subspaces of one item from its
// predictions.
func Space(item Term, preds []Prediction, ix *InstanceIndex) SpaceReport {
	return core.Space(item, preds, ix)
}

// ReadRules parses a rule set written by RuleSet.Write.
func ReadRules(r io.Reader) (*RuleSet, error) { return core.ReadRules(r) }

// NewSeparatorSplitter cuts on the given runes, or on every
// non-alphanumeric rune when none are given (the paper's default).
func NewSeparatorSplitter(opts SplitterOptions, seps ...rune) Splitter {
	return segment.NewSeparatorSplitter(opts, seps...)
}

// NewNGramSplitter produces overlapping rune n-grams.
func NewNGramSplitter(n int, pad bool, opts SplitterOptions) Splitter {
	return segment.NewNGramSplitter(n, pad, opts)
}

// AverageLift returns the mean lift of a rule slice.
func AverageLift(rules []Rule) float64 { return core.AverageLift(rules) }

// RuleEvidence is the expert-facing audit of one rule: supporting
// training links and counterexamples.
type RuleEvidence = core.RuleEvidence

// Explanation traces one classification decision: fired rules and the
// ranked predictions.
type Explanation = core.Explanation
