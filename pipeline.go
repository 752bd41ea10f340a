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
type Pipeline struct {
	Model      *Model
	Classifier *Classifier
	Instances  *InstanceIndex

	se *Graph
	sl *Graph
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
// model over the given live graphs. This is how durable recovery keeps
// model and corpus independent: the model is recomputed from the exact
// learn-time state a snapshot preserved, while the pipeline serves the
// (possibly later-mutated) current graphs — matching a live service
// whose items changed after its last learn.
func NewPipelineWithModel(m *Model, se, sl *Graph, ol *Ontology) *Pipeline {
	classes := make([]Term, 0, m.Rules.Len())
	for _, r := range m.Rules.Rules {
		classes = append(classes, r.Class)
	}
	return &Pipeline{
		Model:      m,
		Classifier: NewClassifier(&m.Rules, m.Config.Splitter),
		Instances:  NewInstanceIndex(sl, ol),
		se:         se,
		sl:         sl,
		classes:    classes,
	}
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
// re-index the engine's catalog values and the instance index, item by
// item. External items need no patch — they are read from the graph
// snapshot at query time — so their entries are no-ops. The caller
// publishes once after the batch, so N items cost one Snapshot.
func (p *Pipeline) ApplyPatches(patches []Patch) {
	if p.linker != nil {
		p.linker.ApplyPatches(patches)
	}
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
}

// EnsureLinker builds the writer's engine for cfg's comparators unless
// it already exists, so the views Snapshot publishes score with it
// instead of compiling a value index per query. Queries with other
// comparators still work: the view builds a request-scoped engine from
// its own frozen graphs. Must be serialized with ApplyPatches.
func (p *Pipeline) EnsureLinker(cfg LinkerConfig) error {
	if p.linker != nil && reflect.DeepEqual(cfg.Comparators, p.linkerCfg.Comparators) {
		return nil
	}
	eng, err := linkage.New(cfg, p.se, p.sl)
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
// and the engine's snapshot resolves external items from the same
// external graph snapshot the view holds. It first warms the instance
// sets of the model's rule classes, so the frozen index answers from
// its memo. Like every writer it must be serialized with mutations; the
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
// else a request-scoped engine compiled from the frozen snapshots.
// Comparators are compared with reflect.DeepEqual, which is always false
// for measures carrying function values (similarity.Func closures):
// those configs still work but compile an engine per query.
func (v *QueryView) engineFor(cfg LinkerConfig) (*linkage.Engine, error) {
	if v.eng != nil && reflect.DeepEqual(cfg.Comparators, v.engCfg.Comparators) {
		return v.eng.WithOptions(cfg.Threshold, cfg.Workers)
	}
	return linkage.New(cfg, v.se, v.sl)
}

// candidates expands one item's reduced space into its local candidates.
func (v *QueryView) candidates(item Term) []Term {
	pairs := core.CandidatePairs(v.ReducedSpace(item), v.ix)
	locs := make([]Term, 0, len(pairs))
	for _, pr := range pairs {
		locs = append(locs, pr[1])
	}
	return locs
}

// itemCands pairs an external item with its expanded local candidates.
type itemCands struct {
	item Term
	locs []Term
}

// LinkTopK returns, for every item, its k best-scoring candidates at or
// above cfg.Threshold inside the item's reduced linking space (k <= 0
// means all). The per-item slices follow the engine's match order.
// Candidate expansion runs serially; the scoring stage fans out across
// cfg.Workers goroutines. When the context carries an obs.Trace, the
// engine-resolution, blocking and scoring stages are timed into it;
// without one the spans are free.
func (v *QueryView) LinkTopK(ctx context.Context, items []Term, cfg LinkerConfig, k int) (map[Term][]Match, error) {
	sp := obs.StartSpan(ctx, "engine")
	eng, err := v.engineFor(cfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	sp = obs.StartSpan(ctx, "blocking")
	cands := make([]itemCands, 0, len(items))
	for _, item := range items {
		if err := ctx.Err(); err != nil {
			sp.End()
			return nil, err
		}
		cands = append(cands, itemCands{item: item, locs: v.candidates(item)})
	}
	sp.End()
	sp = obs.StartSpan(ctx, "scoring")
	defer sp.End()
	type itemMatches struct {
		item Term
		ms   []Match
	}
	scored, err := par.MapChunks(ctx, par.Workers(cfg.Workers), 0, cands, func(c itemCands) (itemMatches, bool) {
		return itemMatches{item: c.item, ms: eng.TopK(c.item, c.locs, k)}, true
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Term][]Match, len(scored))
	for _, im := range scored {
		out[im.item] = im.ms
	}
	return out, nil
}

// LinkWithinCtx runs the matcher over each item's reduced space and
// returns the best match per item at or above cfg.Threshold, scoring
// across cfg.Workers goroutines (0 = all cores); results are
// deterministic for every worker count. A cancelled ctx stops in-flight
// scoring (within one work chunk per worker) and returns ctx.Err().
func (v *QueryView) LinkWithinCtx(ctx context.Context, items []Term, cfg LinkerConfig) ([]Match, error) {
	eng, err := v.engineFor(cfg)
	if err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	cands := map[Term][]Term{}
	for _, item := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands[item] = v.candidates(item)
	}
	return eng.LinkBestCtx(ctx, cands)
}

// Generalize applies the subsumption extension to the pipeline's model
// and returns a new rule set (the pipeline itself is unchanged).
func (p *Pipeline) Generalize(ol *Ontology, opts GeneralizeOptions) RuleSet {
	return p.Model.Generalize(ol, opts)
}
