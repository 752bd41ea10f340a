// Package linkage implements the downstream linking step that runs inside
// the reduced linking space: pairwise comparison of external and local
// item descriptions with configurable per-property similarity measures,
// match decisions, and evaluation against ground-truth links.
//
// The paper deliberately leaves the linking method open — its
// contribution is the reduction of the space the method runs on — so this
// engine is a standard weighted-average record matcher over the
// similarity toolbox of internal/similarity.
//
// # Architecture: value index and worker model
//
// Pair comparison is the dominant cost of linking, so the engine is built
// around two ideas:
//
//   - Value index. New copies each comparator's local property values
//     out of the catalog graph into per-item slices
//     (internal/linkage/index.go). Per-value derivations — rune lengths,
//     token lists and token sets for token-based measures, precompiled
//     patterns for PreparedMeasures (Myers bitmaps for the edit
//     distances, TF-IDF weight vectors) — live in a per-engine cache
//     (internal/linkage/cache.go) keyed by the distinct value string, so
//     a value appearing under several comparators is derived once. The
//     external item of a query is resolved once per call from the
//     engine's external graph, with its derivations built for that call
//     only. Scoring a pair therefore costs one index lookup plus the
//     measure calls: length-bounded measures (the edit distances and the
//     Jaro family) skip value pairs whose length difference already rules
//     out beating the current best, and prepared measures score
//     precompiled pattern against precompiled pattern.
//
//   - Parallel scoring. ScorePairs and LinkBest fan work out across
//     Config.Workers goroutines (default: all cores) using the chunked
//     work-stealing scaffold of internal/par — an atomic cursor hands
//     fixed-size chunks to idle workers, each worker writes its chunk's
//     matches into a dedicated result slot, and the chunks are
//     concatenated in order and sorted under the same total order as the
//     serial path. Output is byte-identical to Workers=1 on the same
//     input. The Ctx variants additionally observe context cancellation
//     between chunks, so a dropped service request stops in-flight
//     scoring.
//
// # Live engines and snapshots
//
// An engine follows the concurrency model of rdf.Graph and
// core.InstanceIndex. The engine New returns belongs to one writer:
// ApplyPatches (internal/linkage/incremental.go) re-indexes local items
// in place and nothing is locked, so it may be queried only while
// neither ApplyPatches nor a mutation of its graphs runs. Snapshot
// returns, in O(1), a frozen engine that resolves external items from a
// frozen snapshot of the external graph and reads a frozen local index:
// the local index is copy-on-write, so a write after a snapshot copies
// only the hash shard it touches, and nothing a snapshot reads is ever
// written again. Any number of goroutines may query a snapshot while
// the writer keeps patching.
package linkage

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

// Comparator compares one external property against one local property
// under a similarity measure.
type Comparator struct {
	ExternalProperty rdf.Term
	LocalProperty    rdf.Term
	Measure          similarity.Measure
	// Weight scales this comparator's contribution; non-positive weights
	// are rejected by Validate.
	Weight float64
}

// Config configures the matching engine.
type Config struct {
	Comparators []Comparator
	// Threshold is the minimum weighted score for a pair to be declared
	// a match, in [0, 1].
	Threshold float64
	// Workers is the number of goroutines ScorePairs and LinkBest fan
	// out across. 0 means runtime.GOMAXPROCS(0); 1 forces the serial
	// path. Output is identical for every worker count.
	Workers int
}

// ErrConfig marks an invalid Config: every Validate failure wraps it, so
// callers (e.g. an HTTP handler) can classify configuration mistakes as
// client errors via errors.Is without string matching.
var ErrConfig = errors.New("linkage: invalid config")

// Validate checks the configuration. All errors wrap ErrConfig.
func (c Config) Validate() error {
	if len(c.Comparators) == 0 {
		return fmt.Errorf("%w: no comparators configured", ErrConfig)
	}
	for i, cmp := range c.Comparators {
		if cmp.Measure == nil {
			return fmt.Errorf("%w: comparator %d has nil measure", ErrConfig, i)
		}
		if cmp.Weight <= 0 {
			return fmt.Errorf("%w: comparator %d has non-positive weight %v", ErrConfig, i, cmp.Weight)
		}
		if cmp.ExternalProperty.IsZero() || cmp.LocalProperty.IsZero() {
			return fmt.Errorf("%w: comparator %d has zero property", ErrConfig, i)
		}
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("%w: threshold %v out of [0,1]", ErrConfig, c.Threshold)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative worker count %d", ErrConfig, c.Workers)
	}
	return nil
}

// Engine scores and links pairs between two graphs. Construction
// indexes every comparator's local property values; external items are
// resolved from the external graph on each query. The engine New
// returns is the writer's: see the package comment for its contract
// and for Snapshot, the form concurrent readers query.
type Engine struct {
	cfg Config
	ix  *index
}

// index is an engine's compiled state. The writer's index (mut non-nil)
// is patched in place by ApplyPatches; a snapshot's index (mut nil) is
// frozen, and engines derived via WithOptions share it.
type index struct {
	comps []compiledComparator
	// totalWeight is the constant score denominator: every comparator
	// keeps its weight whether or not values are present.
	totalWeight float64
	derive      *derivations
	// se is the graph external items are resolved from: the writer's
	// live graph, or the frozen snapshot a snapshot was taken with.
	se *rdf.Graph
	// loc holds each comparator's local value index, by slot.
	loc []*localIndex

	// The writer-only half, nil on a snapshot: the live local graph
	// patches re-read from, the refcounted value cache, and the token
	// that owns the local shards the writer may write in place.
	sl    *rdf.Graph
	cache *valueCache
	mut   *mutToken
}

// New builds an engine over the external and local graphs, indexing the
// local values (see the package comment). Later mutations of the local
// graph are observed only once the mutated items are passed to
// ApplyPatches; external items are read from se at query time.
func New(cfg Config, se, sl *rdf.Graph) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	comps := compileComparators(cfg)
	d := newDerivations(comps)
	ix := &index{
		comps:  comps,
		derive: d,
		se:     se,
		sl:     sl,
		cache:  &valueCache{d: d, entries: map[string]*cacheEntry{}},
		mut:    &mutToken{},
	}
	ix.loc = make([]*localIndex, len(comps))
	for i := range comps {
		ix.loc[i] = buildLocalIndex(&comps[i], sl, ix.cache, ix.mut)
		ix.totalWeight += comps[i].weight
	}
	return &Engine{cfg: cfg, ix: ix}, nil
}

// WithOptions returns an engine under a different threshold and worker
// count that shares the frozen index of this engine's Snapshot, skipping
// the index rebuild. On a writer's engine it takes that snapshot, so it
// must be serialized with ApplyPatches like Snapshot.
func (e *Engine) WithOptions(threshold float64, workers int) (*Engine, error) {
	cfg := e.cfg
	cfg.Threshold = threshold
	cfg.Workers = workers
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, ix: e.Snapshot().ix}, nil
}

// workers resolves Config.Workers: 0 means all cores.
func (e *Engine) workers() int { return par.Workers(e.cfg.Workers) }

// chunkSize is the number of items a worker claims at a time.
const chunkSize = par.DefaultChunk

// Score computes the weighted similarity of one pair in [0, 1]. For a
// multi-valued property the best-scoring value pair counts. Comparators
// whose properties are absent on either side score 0 but keep their
// weight in the denominator, penalizing missing information.
func (e *Engine) Score(ext, loc rdf.Term) float64 {
	return e.ix.score(e.ix.resolve(ext), loc)
}

// score is the hot path: ext is an external item's resolved values.
func (ix *index) score(ext [][]indexedValue, loc rdf.Term) float64 {
	sh := shardOf(loc)
	num := 0.0
	for i := range ix.comps {
		c := &ix.comps[i]
		evs := ext[i]
		if len(evs) == 0 {
			continue
		}
		lvs := ix.loc[i][sh].m[loc]
		if len(lvs) == 0 {
			continue
		}
		best := 0.0
		for vi := range evs {
			ev := evs[vi].entry
			for vj := range lvs {
				lv := lvs[vj].entry
				// A value pair whose length bound cannot beat the current
				// best is settled without running the measure.
				if c.bounded != nil && c.bounded.SimilarityUpperBound(ev.runeLen, lv.runeLen) <= best {
					continue
				}
				var s float64
				switch {
				case c.prepared != nil:
					// Both sides' values were prepared in this comparator's
					// slot: the local ones when indexed, the external ones
					// when resolved.
					s = ev.prepared[c.slot].SimilarityPrepared(lv.prepared[c.slot])
				case c.tokenSets != nil:
					s = c.tokenSets.SimilarityTokenSets(ev.tokenSet, lv.tokenSet)
				case c.tokens != nil:
					s = c.tokens.SimilarityTokens(ev.tokens, lv.tokens)
				default:
					s = c.measure.Similarity(evs[vi].value, lvs[vj].value)
				}
				if s > best {
					best = s
				}
			}
		}
		num += c.weight * best
	}
	return num / ix.totalWeight
}

// Match is a declared same-as link with its score.
type Match struct {
	External rdf.Term
	Local    rdf.Term
	Score    float64
}

// ScorePairs scores candidate pairs and returns those at or above the
// threshold, sorted by descending score (ties broken deterministically).
// The work is spread across Config.Workers goroutines; output is
// identical for every worker count.
func (e *Engine) ScorePairs(pairs [][2]rdf.Term) []Match {
	out, _ := e.ScorePairsCtx(context.Background(), pairs)
	return out
}

// ScorePairsCtx is ScorePairs with cooperative cancellation: when ctx is
// cancelled mid-run, in-flight chunks finish, the rest are skipped, and
// ctx.Err() is returned with a nil slice. Each distinct external item is
// resolved once before the pairs fan out.
func (e *Engine) ScorePairsCtx(ctx context.Context, pairs [][2]rdf.Term) ([]Match, error) {
	ix := e.ix
	exts := map[rdf.Term][][]indexedValue{}
	for _, p := range pairs {
		if _, ok := exts[p[0]]; !ok {
			exts[p[0]] = ix.resolve(p[0])
		}
	}
	out, err := par.MapChunks(ctx, e.workers(), chunkSize, pairs, func(p [2]rdf.Term) (Match, bool) {
		s := ix.score(exts[p[0]], p[1])
		return Match{External: p[0], Local: p[1], Score: s}, s >= e.cfg.Threshold
	})
	if err != nil {
		return nil, err
	}
	sortMatches(out)
	return out, nil
}

// LinkBest performs one-to-one greedy linking: every external item is
// linked to its best-scoring candidate at or above the threshold. The
// candidates map gives each external item's reduced linking space. The
// per-item searches are spread across Config.Workers goroutines; output
// is identical for every worker count.
func (e *Engine) LinkBest(candidates map[rdf.Term][]rdf.Term) []Match {
	out, _ := e.LinkBestCtx(context.Background(), candidates)
	return out
}

// LinkBestCtx is LinkBest with cooperative cancellation, following the
// contract of ScorePairsCtx.
func (e *Engine) LinkBestCtx(ctx context.Context, candidates map[rdf.Term][]rdf.Term) ([]Match, error) {
	exts := make([]rdf.Term, 0, len(candidates))
	for ext := range candidates {
		exts = append(exts, ext)
	}
	out, err := par.MapChunks(ctx, e.workers(), chunkSize, exts, func(ext rdf.Term) (Match, bool) {
		return e.ix.bestFor(ext, candidates[ext], e.cfg.Threshold)
	})
	if err != nil {
		return nil, err
	}
	sortMatches(out)
	return out, nil
}

// bestFor returns ext's best-scoring candidate among locs and whether it
// clears the threshold.
func (ix *index) bestFor(ext rdf.Term, locs []rdf.Term, threshold float64) (Match, bool) {
	q := ix.resolve(ext)
	best := Match{Score: -1}
	for _, loc := range locs {
		s := ix.score(q, loc)
		if s > best.Score || (s == best.Score && loc.Compare(best.Local) < 0) {
			best = Match{External: ext, Local: loc, Score: s}
		}
	}
	return best, best.Score >= threshold
}

// TopK scores ext against every candidate in locs and returns up to k
// matches at or above the threshold, best first under the same total
// order ScorePairs sorts by. k <= 0 means no limit.
func (e *Engine) TopK(ext rdf.Term, locs []rdf.Term, k int) []Match {
	ix := e.ix
	q := ix.resolve(ext)
	var out []Match
	for _, loc := range locs {
		if s := ix.score(q, loc); s >= e.cfg.Threshold {
			out = append(out, Match{External: ext, Local: loc, Score: s})
		}
	}
	sortMatches(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		if c := ms[i].External.Compare(ms[j].External); c != 0 {
			return c < 0
		}
		return ms[i].Local.Compare(ms[j].Local) < 0
	})
}

// Result is a confusion summary of declared links against ground truth.
type Result struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision is TP / (TP + FP).
func (r Result) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall is TP / (TP + FN).
func (r Result) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// F1 is the harmonic mean of precision and recall.
func (r Result) F1() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// Evaluate scores declared matches against the truth links.
func Evaluate(found []Match, truth []core.Link) Result {
	truthSet := make(map[core.Link]struct{}, len(truth))
	for _, l := range truth {
		truthSet[l] = struct{}{}
	}
	var res Result
	seen := map[core.Link]struct{}{}
	for _, m := range found {
		l := core.Link{External: m.External, Local: m.Local}
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		if _, ok := truthSet[l]; ok {
			res.TruePositives++
		} else {
			res.FalsePositives++
		}
	}
	res.FalseNegatives = len(truth) - res.TruePositives
	return res
}
