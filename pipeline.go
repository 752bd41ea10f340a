package datalink

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/similarity"
)

// Measure scores string similarity in [0, 1].
type Measure = similarity.Measure

// Comparator compares one external property against one local property
// under a similarity measure, with a weight.
type Comparator = linkage.Comparator

// LinkerConfig configures the in-space matcher.
type LinkerConfig = linkage.Config

// Match is a declared same-as link with its score.
type Match = linkage.Match

// Side selects the external or local source of an item, for incremental
// index maintenance.
type Side = linkage.Side

// Side values.
const (
	// ExternalSide addresses items of the external graph (SE).
	ExternalSide = linkage.ExternalSide
	// LocalSide addresses items of the local catalog graph (SL).
	LocalSide = linkage.LocalSide
)

// LinkResult is the confusion summary of declared links vs ground truth.
type LinkResult = linkage.Result

// Similarity measure constructors commonly used by linkers.
var (
	// Levenshtein is normalized edit-distance similarity.
	Levenshtein Measure = similarity.Levenshtein{}
	// JaroWinkler is prefix-boosted Jaro similarity.
	JaroWinkler Measure = similarity.JaroWinkler{}
	// Jaccard is token-set Jaccard similarity.
	Jaccard Measure = similarity.Jaccard{}
	// MongeElkan is the token-level hybrid with Jaro-Winkler inside.
	MongeElkan Measure = similarity.MongeElkan{}
)

// EvaluateLinks scores declared matches against truth links.
func EvaluateLinks(found []Match, truth []Link) LinkResult {
	return linkage.Evaluate(found, truth)
}

// ErrLinkerConfig marks an invalid LinkerConfig; every config validation
// failure from the linking engine wraps it, letting callers classify
// configuration mistakes (a client error) apart from internal failures.
var ErrLinkerConfig = linkage.ErrConfig

// Pipeline wires the full flow of the paper: learn rules from TS, then
// for each new external item predict classes, build the reduced linking
// space, and (optionally) run a matcher inside it.
//
// A Pipeline is the writer's half of that flow and has no query
// methods. It owns the live graphs, the instance index and, once
// EnsureLinker ran, a linkage engine that indexes the local catalog; the
// caller mutates the graphs and reports each mutation through
// ApplyPatches, serialized like any writer. Queries run on a QueryView:
// Snapshot publishes, in O(1), frozen copy-on-write snapshots of the
// graphs, the instance index and the engine together, and a view answers
// every query from exactly that one published state while the pipeline
// keeps mutating — internal/service publishes one per mutation via an
// atomic pointer.
//
// The model is the only part that depends on the training links. The
// instance index and the engine's value columns depend on the catalog,
// the ontology and the comparators alone, so a relearn installs its
// model with SetModel and keeps them.
type Pipeline struct {
	Model      *Model
	Classifier *Classifier
	Instances  *InstanceIndex

	se *Graph
	sl *Graph
	ol *Ontology
	// classes are the model's rule classes, whose instance sets Snapshot
	// warms before it freezes the instance index: frozen indexes never
	// write their memo.
	classes []Term

	// linker is the writer's engine for linkerCfg's comparators, kept
	// current by ApplyPatches; Snapshot publishes its frozen snapshot.
	linker    *linkage.Engine
	linkerCfg LinkerConfig
}

// NewPipeline learns a model and prepares the classifier and instance
// index.
func NewPipeline(cfg LearnerConfig, ts TrainingSet, se, sl *Graph, ol *Ontology) (*Pipeline, error) {
	m, err := Learn(cfg, ts, se, sl, ol)
	if err != nil {
		return nil, err
	}
	return NewPipelineWithModel(m, se, sl, ol), nil
}

// NewPipelineWithModel builds a pipeline around an already-learned
// model over the given live graphs. The model need not have been
// learned from these graphs, and it may be one built from its exported
// fields: durable recovery installs the model a snapshot holds over the
// snapshot's current graphs, which item mutations after the last learn
// may have changed — matching a live service whose items changed after
// its last learn.
func NewPipelineWithModel(m *Model, se, sl *Graph, ol *Ontology) *Pipeline {
	p := &Pipeline{Instances: NewInstanceIndex(sl, ol), se: se, sl: sl, ol: ol}
	p.installModel(m)
	return p
}

// SetModel installs a newly learned model and its classifier, and keeps
// the instance index and the engine: ApplyPatches has kept both current
// with the catalog, and neither depends on the model. The next Snapshot
// warms the new rule classes. Must be serialized with ApplyPatches.
//
// Only the instance index numbers catalog items, and only typed ones;
// the engine indexes the values of items the index has numbered. IDs
// are never reused, so a catalog item that loses its last class keeps
// an ID that names no typed item. When more than a quarter of the IDs
// name no typed item, SetModel compacts: it rebuilds the instance index
// over a fresh ID table, and the engine over that table, as
// NewPipelineWithModel and EnsureLinker would. It reports whether it
// did. Answers do not depend on which IDs the items hold.
func (p *Pipeline) SetModel(m *Model) (rebuilt bool) {
	p.installModel(m)
	if n := p.Instances.IDs().Len(); n-p.Instances.Total() <= n/4 {
		return false
	}
	p.Instances = NewInstanceIndex(p.sl, p.ol)
	if p.linker != nil {
		// The engine shares the old table, so it cannot be kept. Its
		// config passed validation when it was built, so the rebuild
		// cannot fail.
		p.linker = nil
		_ = p.EnsureLinker(p.linkerCfg)
	}
	return true
}

// installModel sets the model, its classifier and its rule classes.
func (p *Pipeline) installModel(m *Model) {
	classes := make([]Term, 0, m.Rules.Len())
	for _, r := range m.Rules.Rules {
		classes = append(classes, r.Class)
	}
	p.Model, p.Classifier, p.classes = m, NewClassifier(&m.Rules, m.Config.Splitter), classes
}

// External returns the pipeline's live external graph. Mutate it only
// under the same serialization as ApplyPatches.
func (p *Pipeline) External() *Graph { return p.se }

// Local returns the pipeline's live local catalog graph, under the same
// contract as External; report each mutation through ApplyPatches.
func (p *Pipeline) Local() *Graph { return p.sl }

// Patch is one batched index mutation: re-index (or with Remove, drop)
// Items on Side. See ApplyPatches.
type Patch = linkage.IndexPatch

// ApplyPatches reports an ordered mixed upsert/remove batch of item
// mutations the caller already made to the graphs: local-side entries
// re-index the instance index and then the engine's catalog values, item
// by item. The instance index goes first because it owns the ID table
// both share: it gives a new catalog item its ID, and the engine then
// files the item's values under that ID. External items need no
// patch — they are read from the graph snapshot at query time — so
// their entries are no-ops. The caller publishes once after the batch,
// so N items cost one Snapshot.
func (p *Pipeline) ApplyPatches(patches []Patch) {
	for _, pt := range patches {
		if pt.Side != LocalSide {
			continue
		}
		for _, item := range pt.Items {
			if pt.Remove {
				p.Instances.RemoveInstance(item)
			} else {
				p.Instances.UpsertInstance(item, p.sl.Objects(item, RDFType))
			}
		}
	}
	if p.linker != nil {
		p.linker.ApplyPatches(patches)
	}
}

// EnsureLinker builds the writer's engine for cfg's comparators unless
// it already exists, so the views Snapshot publishes score with it
// instead of compiling a value index per query. The engine shares the
// instance index's ID table and indexes only the items it numbered, the
// typed ones, so a view scores its class sets' IDs directly. Queries
// with other comparators still work: the view builds a request-scoped
// engine from its own frozen graphs and table. Must be serialized with
// ApplyPatches.
func (p *Pipeline) EnsureLinker(cfg LinkerConfig) error {
	if p.linker != nil && reflect.DeepEqual(cfg.Comparators, p.linkerCfg.Comparators) {
		return nil
	}
	eng, err := linkage.NewWithIDs(cfg, p.se, p.sl, p.Instances.IDs())
	if err != nil {
		return err
	}
	// Copy the comparator slice, so a caller mutating its own slice in
	// place cannot alias the views' comparator match.
	cfg.Comparators = append([]Comparator(nil), cfg.Comparators...)
	p.linker, p.linkerCfg = eng, cfg
	return nil
}

// Snapshot publishes a QueryView of the pipeline's current state in
// O(1): graph, instance-index and engine snapshots are copy-on-write,
// the engine's snapshot resolves external items from the same external
// graph snapshot the view holds, and both index snapshots read the same
// frozen ID table. It first warms the instance sets of the model's rule
// classes, so the frozen index answers from its memo. Like every writer it must be serialized with mutations; the
// returned view is safe for unsynchronized concurrent use from then on.
func (p *Pipeline) Snapshot() *QueryView {
	p.Instances.Freeze(p.classes)
	v := &QueryView{
		model:      p.Model,
		classifier: p.Classifier,
		se:         p.se.Snapshot(),
		sl:         p.sl.Snapshot(),
		ix:         p.Instances.Snapshot(),
	}
	if p.linker != nil {
		v.eng, v.engCfg = p.linker.Snapshot(), p.linkerCfg
	}
	return v
}

// QueryView is an immutable point-in-time view of a pipeline:
// classification, candidate expansion and scoring all read the frozen
// state one Snapshot published, so a query never mixes pre- and
// post-mutation data while the live pipeline keeps mutating. Scoring
// uses the published engine snapshot when the requested comparators are
// the pipeline's linker comparators, and otherwise a request-scoped
// engine compiled from the view's own frozen graphs.
type QueryView struct {
	model      *Model
	classifier *Classifier
	se, sl     *Graph
	ix         *InstanceIndex
	eng        *linkage.Engine
	engCfg     LinkerConfig
}

// Model returns the learned model backing this view (immutable).
func (v *QueryView) Model() *Model { return v.model }

// External returns the view's frozen external graph snapshot.
func (v *QueryView) External() *Graph { return v.se }

// Local returns the view's frozen local graph snapshot.
func (v *QueryView) Local() *Graph { return v.sl }

// Instances returns the view's frozen instance index.
func (v *QueryView) Instances() *InstanceIndex { return v.ix }

// Classify predicts the classes of an external item as described at
// snapshot time.
func (v *QueryView) Classify(item Term) []Prediction {
	return v.classifier.Classify(item, v.se)
}

// ReducedSpace computes the item's linking subspaces from its
// predictions, over the frozen instance index.
func (v *QueryView) ReducedSpace(item Term) SpaceReport {
	return core.Space(item, v.Classify(item), v.ix)
}

// engineFor resolves the scoring engine for cfg: the published engine
// snapshot under cfg's threshold and workers when the comparators match,
// else a request-scoped engine compiled from the frozen snapshots over
// the view's frozen ID table. Either scores the IDs of the view's class
// sets.
// Comparators are compared with reflect.DeepEqual, which is always false
// for measures carrying function values (similarity.Func closures):
// those configs still work but compile an engine per query.
func (v *QueryView) engineFor(cfg LinkerConfig) (*linkage.Engine, error) {
	if v.eng != nil && reflect.DeepEqual(cfg.Comparators, v.engCfg.Comparators) {
		return v.eng.WithOptions(cfg.Threshold, cfg.Workers)
	}
	return linkage.NewWithIDs(cfg, v.se, v.sl, v.ix.IDs())
}

// Work counters LinkTopK adds to the request's obs.Trace, one sum per
// call. The service exports each as the counter
// linkrules_<name>_total and returns them with ?debug=timings.
const (
	// CountLinkCandidates is the candidates expanded: the sum of the
	// items' UnionSize.
	CountLinkCandidates = "link_candidates"
	// CountLinkPairsScored is the candidate pairs scored.
	CountLinkPairsScored = "link_pairs_scored"
	// CountLinkPairsPruned is the candidate pairs skipped unscored
	// because their score bound could not reach the bar.
	CountLinkPairsPruned = "link_pairs_pruned"
	// CountLinkPairsSkipped is the candidate pairs skipped with no bound
	// of their own, because the bound of their whole length band could
	// not reach the bar. Candidates = scored + pruned + skipped.
	CountLinkPairsSkipped = "link_pairs_skipped"
	// CountLinkItemsNoRule is the items that fired no rule.
	CountLinkItemsNoRule = "link_items_no_rule"
)

// LinkTopK returns, for every item, its k best-scoring candidates at or
// above cfg.Threshold inside the item's reduced linking space (k <= 0
// means all). The per-item slices follow the engine's match order. An
// item named more than once is expanded, scored and counted once.
//
// The reduced space is the union of the item's predicted classes'
// instance sets, as IDs (SpaceReport.Candidates), and the engine scores
// those IDs directly (linkage.Engine.TopKIDs). An item that fires no
// rule, or whose predicted classes have no local instance, has an empty
// space; the policy is to keep it empty, so it gets no matches — there
// is no fallback to the full catalog.
//
// Candidate expansion runs serially; the scoring stage fans out across
// cfg.Workers goroutines. When the context carries an obs.Trace, the
// engine-resolution, blocking and scoring stages are timed into it and
// the Count* work counters are added to it; without one the spans and
// counters are free.
func (v *QueryView) LinkTopK(ctx context.Context, items []Term, cfg LinkerConfig, k int) (map[Term][]Match, error) {
	sp := obs.StartSpan(ctx, "engine")
	eng, err := v.engineFor(cfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	sp = obs.StartSpan(ctx, "blocking")
	spaces := make([]SpaceReport, 0, len(items))
	seen := make(map[Term]bool, len(items))
	for _, item := range items {
		if seen[item] {
			continue
		}
		seen[item] = true
		if err := ctx.Err(); err != nil {
			sp.End()
			return nil, err
		}
		spaces = append(spaces, v.ReducedSpace(item))
	}
	sp.End()
	sp = obs.StartSpan(ctx, "scoring")
	defer sp.End()
	type itemMatches struct {
		ms   []Match
		work linkage.Work
	}
	scored, err := par.MapChunks(ctx, par.Workers(cfg.Workers), 0, spaces, func(sr SpaceReport) (itemMatches, bool) {
		ms, work := eng.TopKIDs(sr.Item, sr.Candidates(), k)
		return itemMatches{ms: ms, work: work}, true
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Term][]Match, len(scored))
	var cands, noRule, pairs, pruned, skipped int
	for i, sr := range spaces {
		out[sr.Item] = scored[i].ms
		pairs += scored[i].work.Scored
		pruned += scored[i].work.Pruned
		skipped += scored[i].work.Skipped
		cands += sr.UnionSize
		if len(sr.Subspaces) == 0 {
			noRule++
		}
	}
	tr := obs.TraceFrom(ctx)
	tr.Add(CountLinkCandidates, int64(cands))
	tr.Add(CountLinkPairsScored, int64(pairs))
	tr.Add(CountLinkPairsPruned, int64(pruned))
	tr.Add(CountLinkPairsSkipped, int64(skipped))
	tr.Add(CountLinkItemsNoRule, int64(noRule))
	return out, nil
}
