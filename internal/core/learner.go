package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ontology"
	"repro/internal/par"
	"repro/internal/rdf"
	"repro/internal/segment"
)

// LearnerConfig parameterizes Algorithm 1. The zero value plus a training
// set reproduces the paper's experiment settings: every data property of
// SE, separator splitting on non-alphanumerics, support threshold 0.002.
type LearnerConfig struct {
	// Properties is the expert-selected property set P. Empty means all
	// properties of SE whose objects are literals ("all if no selection",
	// Algorithm 1).
	Properties []rdf.Term
	// Splitter decomposes property values; nil means the paper's default
	// separator splitter (split on every non-alphanumeric rune).
	Splitter segment.Splitter
	// SupportThreshold is th, as a fraction of |TS|; 0 means 0.002.
	SupportThreshold float64
	// Workers caps the goroutines used by the learning passes; 0 means
	// GOMAXPROCS. Purely a wall-time knob: the learned model is
	// byte-identical at every setting, so Workers is NOT part of the
	// learner identity persisted with snapshots (see service durable
	// metadata) and changing it never invalidates a recovered model.
	Workers int
}

func (cfg LearnerConfig) withDefaults() LearnerConfig {
	if cfg.Splitter == nil {
		cfg.Splitter = segment.NewSeparatorSplitter(segment.Options{})
	}
	if cfg.SupportThreshold == 0 {
		cfg.SupportThreshold = 0.002
	}
	return cfg
}

// LearnStats reports the corpus-level counters of a learning run — the
// numbers Section 5 of the paper quotes alongside Table 1.
type LearnStats struct {
	// TSSize is |TS| after deduplication.
	TSSize int
	// Properties is |P| after discovery.
	Properties int
	// DistinctSegments is the number of distinct segments over all
	// property values of TS's external items (paper: 7842).
	DistinctSegments int
	// SegmentOccurrences is the total number of segment occurrences
	// (paper: 26077).
	SegmentOccurrences int
	// SelectedSegmentOccurrences is the occurrences covered by frequent
	// (property, segment) pairs (paper: 7058).
	SelectedSegmentOccurrences int
	// FrequentPairs is the number of (property, segment) pairs above th.
	FrequentPairs int
	// CandidateClasses is the number of distinct most-specific classes
	// carried by TS's local items (paper: 67 frequent leaf classes were
	// described in TS).
	CandidateClasses int
	// FrequentClasses is the number of classes above th (paper: 68
	// classes with more than 20 instances).
	FrequentClasses int
	// RuleCount is the number of rules selected (paper: 144).
	RuleCount int
	// ClassesWithRules is the number of distinct conclusion classes
	// among the selected rules (paper: interesting segments for 16
	// classes).
	ClassesWithRules int
}

// Model is the result of a learning run: the rule set plus the retained
// per-link index needed by evaluation and by the generalization
// extension. A Model built from its exported fields has no index: it
// reports no training links, and Generalize returns its rules.
type Model struct {
	Rules RuleSet
	Stats LearnStats
	// Config echoes the effective configuration (defaults applied).
	Config LearnerConfig

	index *tsIndex
}

// tsIndex stores, for every training link, the segments of the external
// item per property and the most-specific classes of the local item.
type tsIndex struct {
	facts []linkFacts
	// classOf counts links per class (most-specific, local side).
	classOf map[rdf.Term]int
}

type linkFacts struct {
	link    Link
	segs    map[rdf.Term]map[string]struct{}
	classes []rdf.Term
}

// propertySegment is a premise atom key.
type propertySegment struct {
	property rdf.Term
	segment  string
}

// conjunction is a (premise atom, conclusion class) pair, the key of the
// joint-frequency count behind rule emission.
type conjunction struct {
	ps propertySegment
	c  rdf.Term
}

// Learn runs Algorithm 1 over the training set: se supplies the property
// facts of the external items, sl the rdf:type facts of the local items,
// ol the ontology used to reduce types to most-specific classes.
func Learn(cfg LearnerConfig, ts TrainingSet, se, sl *rdf.Graph, ol *ontology.Ontology) (*Model, error) {
	return LearnCtx(context.Background(), cfg, ts, se, sl, ol)
}

// LearnCtx is Learn with cancellation: the per-link splitting pass and
// the counting passes fan out over cfg.Workers goroutines and observe
// ctx between work chunks. On cancellation LearnCtx returns ctx's error
// and no model — never a partially-counted one.
func LearnCtx(ctx context.Context, cfg LearnerConfig, ts TrainingSet, se, sl *rdf.Graph, ol *ontology.Ontology) (*Model, error) {
	cfg = cfg.withDefaults()
	ts = ts.Dedup()
	if ts.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if cfg.SupportThreshold < 0 || cfg.SupportThreshold >= 1 {
		return nil, fmt.Errorf("core: support threshold %v out of (0,1)", cfg.SupportThreshold)
	}

	props := cfg.Properties
	if len(props) == 0 {
		props = discoverProperties(ts, se)
	}
	if len(props) == 0 {
		return nil, fmt.Errorf("core: no literal-valued properties found for training externals")
	}

	// The ontology memoizes its transitive closure on first query without
	// locking; force that build before fanning out so the workers only
	// ever read it.
	if ol != nil {
		ol.MostSpecific(nil)
	}

	// Pass 1 (Algorithm 1, first loop): split every property value of
	// every external item into segments, recording per-link segment sets
	// and corpus occurrence statistics. The per-link work — graph reads,
	// splitting, set building — fans out over workers; the ordered result
	// slices are then replayed serially into the corpus-level counters,
	// so the index and statistics are byte-identical at every worker
	// count.
	type pass1 struct {
		lf       linkFacts
		segLists [][]string
	}
	perLink, err := par.MapChunks(ctx, cfg.Workers, 0, ts.Links, func(link Link) (pass1, bool) {
		r := pass1{lf: linkFacts{link: link, segs: map[rdf.Term]map[string]struct{}{}}}
		for _, p := range props {
			for _, v := range se.Objects(link.External, p) {
				if !v.IsLiteral() {
					continue
				}
				segs := cfg.Splitter.Split(v.Value)
				if len(segs) == 0 {
					continue
				}
				r.segLists = append(r.segLists, segs)
				set := r.lf.segs[p]
				if set == nil {
					set = map[string]struct{}{}
					r.lf.segs[p] = set
				}
				for _, a := range segs {
					set[a] = struct{}{}
				}
			}
		}
		r.lf.classes = mostSpecificClasses(link.Local, sl, ol)
		return r, true
	})
	if err != nil {
		return nil, err
	}
	idx := &tsIndex{facts: make([]linkFacts, 0, len(perLink)), classOf: map[rdf.Term]int{}}
	segStats := segment.NewStats()
	for _, r := range perLink {
		for _, segs := range r.segLists {
			segStats.ObserveSegments(segs)
		}
		for _, c := range r.lf.classes {
			idx.classOf[c]++
		}
		idx.facts = append(idx.facts, r.lf)
	}

	// Passes 2-5: premise, class and conjunction frequencies, rule
	// emission.
	return rebuildFromIndex(ctx, cfg, props, idx, segStats)
}

// discoverProperties returns every predicate of SE that carries a literal
// value for at least one training external, sorted ("all if no
// selection").
func discoverProperties(ts TrainingSet, se *rdf.Graph) []rdf.Term {
	set := map[rdf.Term]struct{}{}
	for _, link := range ts.Links {
		se.Match(link.External, rdf.Term{}, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				set[t.P] = struct{}{}
			}
			return true
		})
	}
	out := make([]rdf.Term, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// mostSpecificClasses returns the most-specific asserted classes of item
// in sl, per the ontology. Types missing from the ontology are kept as-is
// (the paper's data is assumed conformant, but we degrade gracefully).
func mostSpecificClasses(item rdf.Term, sl *rdf.Graph, ol *ontology.Ontology) []rdf.Term {
	types := sl.TypesOf(item)
	if len(types) == 0 {
		return nil
	}
	if ol == nil {
		return types
	}
	known := types[:0:0]
	var unknown []rdf.Term
	for _, t := range types {
		if ol.Has(t) {
			known = append(known, t)
		} else {
			unknown = append(unknown, t)
		}
	}
	out := ol.MostSpecific(known)
	out = append(out, unknown...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// TrueClasses exposes the most-specific classes recorded for the i-th
// training link; evaluation uses it to score decisions without re-deriving
// types.
func (m *Model) TrueClasses(i int) []rdf.Term {
	if m.index == nil || i < 0 || i >= len(m.index.facts) {
		return nil
	}
	return m.index.facts[i].classes
}

// TrainingLink returns the i-th deduplicated training link, or the
// zero Link when there is none.
func (m *Model) TrainingLink(i int) Link {
	if m.index == nil || i < 0 || i >= len(m.index.facts) {
		return Link{}
	}
	return m.index.facts[i].link
}

// TrainingSize returns the number of deduplicated training links.
func (m *Model) TrainingSize() int {
	if m.index == nil {
		return 0
	}
	return len(m.index.facts)
}

// SegmentsOf returns the recorded segments of training link i for
// property p (nil when none).
func (m *Model) SegmentsOf(i int, p rdf.Term) []string {
	if m.index == nil || i < 0 || i >= len(m.index.facts) {
		return nil
	}
	set := m.index.facts[i].segs[p]
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// mergeCounts folds the right counting map into the left, the merge step
// of the parallel counting passes. Addition commutes, so the merged map
// equals the serial count at every worker count.
func mergeCounts[K comparable](a, b map[K]int) map[K]int {
	for k, n := range b {
		a[k] += n
	}
	return a
}

// rebuildFromIndex runs the counting passes of Algorithm 1 over the
// training-set index and emits the rules. The two O(|TS| x segments)
// counting passes fan out over cfg.Workers via par.ReduceChunks with
// per-chunk count maps merged in chunk order.
func rebuildFromIndex(ctx context.Context, cfg LearnerConfig, props []rdf.Term, idx *tsIndex, segStats *segment.Stats) (*Model, error) {
	n := len(idx.facts)
	if n == 0 {
		return nil, ErrEmptyTrainingSet
	}
	minCount := cfg.SupportThreshold * float64(n)

	premiseCount, err := par.ReduceChunks(ctx, cfg.Workers, 0, idx.facts,
		func() map[propertySegment]int { return map[propertySegment]int{} },
		func(acc map[propertySegment]int, lf linkFacts) map[propertySegment]int {
			for p, set := range lf.segs {
				for a := range set {
					acc[propertySegment{p, a}]++
				}
			}
			return acc
		},
		mergeCounts[propertySegment])
	if err != nil {
		return nil, err
	}
	frequentPremise := map[propertySegment]int{}
	selectedSegments := map[string]struct{}{}
	for ps, cnt := range premiseCount {
		if float64(cnt) > minCount {
			frequentPremise[ps] = cnt
			selectedSegments[ps.segment] = struct{}{}
		}
	}
	frequentClass := map[rdf.Term]int{}
	for c, cnt := range idx.classOf {
		if float64(cnt) > minCount {
			frequentClass[c] = cnt
		}
	}
	// frequentPremise and frequentClass are complete and read-only from
	// here on, so the conjunction pass can share them across workers.
	jointCount, err := par.ReduceChunks(ctx, cfg.Workers, 0, idx.facts,
		func() map[conjunction]int { return map[conjunction]int{} },
		func(acc map[conjunction]int, lf linkFacts) map[conjunction]int {
			for p, set := range lf.segs {
				for a := range set {
					ps := propertySegment{p, a}
					if _, ok := frequentPremise[ps]; !ok {
						continue
					}
					for _, c := range lf.classes {
						if _, ok := frequentClass[c]; !ok {
							continue
						}
						acc[conjunction{ps, c}]++
					}
				}
			}
			return acc
		},
		mergeCounts[conjunction])
	if err != nil {
		return nil, err
	}
	rules := RuleSet{}
	classesWithRules := map[rdf.Term]struct{}{}
	for conj, cnt := range jointCount {
		if float64(cnt) <= minCount {
			continue
		}
		rules.Rules = append(rules.Rules, Rule{
			Property:     conj.ps.property,
			Segment:      conj.ps.segment,
			Class:        conj.c,
			PremiseCount: frequentPremise[conj.ps],
			JointCount:   cnt,
			ClassCount:   idx.classOf[conj.c],
			TSSize:       n,
		})
		classesWithRules[conj.c] = struct{}{}
	}
	rules.Sort()

	selectedOcc := 0
	for seg := range selectedSegments {
		selectedOcc += segStats.Count(seg)
	}
	return &Model{
		Rules:  rules,
		Config: cfg,
		Stats: LearnStats{
			TSSize:                     n,
			Properties:                 len(props),
			DistinctSegments:           segStats.Distinct(),
			SegmentOccurrences:         segStats.Occurrences(),
			SelectedSegmentOccurrences: selectedOcc,
			FrequentPairs:              len(frequentPremise),
			CandidateClasses:           len(idx.classOf),
			FrequentClasses:            len(frequentClass),
			RuleCount:                  rules.Len(),
			ClassesWithRules:           len(classesWithRules),
		},
		index: idx,
	}, nil
}
