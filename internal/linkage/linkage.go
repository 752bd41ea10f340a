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
// # Architecture: dense IDs from class set to score
//
// A query scores one external item against the few thousand local items
// of its reduced space, so the glue around the similarity kernels costs
// as much as the kernels. The engine is built so that the serving path
// never hashes, sorts or allocates a catalog term:
//
//   - One ID space. Every local item has a dense uint32 ID from a
//     core.IDTable. New builds and numbers a private table; NewWithIDs
//     builds over a given one and indexes only the items it knows, which
//     is how a pipeline's engine shares the table of its
//     core.InstanceIndex, so the bits of a class set
//     (core.SpaceReport.Candidates) address the engine's columns
//     directly.
//
//   - Value columns. Each comparator keeps its local values in a column
//     indexed by ID (internal/linkage/index.go): per value the string,
//     its similarity.Sketch when the measure bounds its score by one (the
//     rune length and bucketed rune counts, built once when the value is
//     indexed), plus the one derived form the measure reads from the
//     local side — a token list or token set for the token measures.
//     The edit distances read only the local string, so no local value
//     carries a Myers table. The external item of a query is resolved
//     once per call from the engine's external graph, with its sketches
//     and prepared forms built for that call only.
//
//   - Length bands (internal/linkage/bands.go). The heaviest comparator
//     whose measure is an edit distance is the banded one: its column
//     also keeps a flat sketch column, per ID the sketch of its one
//     value, and its IDs are filed in one set per rune length of that
//     value, with the items of several values in a set of their own.
//     An edit distance cannot score a pair above
//     similarity.EditDistanceLengthBound of their lengths, so a band's
//     bound is known before any of its candidates is read.
//
//   - One scoring loop. A ranker offers candidate IDs: for each it first
//     sums the candidate's bound, the weighted similarity.SketchBounded
//     bound of each comparator, the largest over the two sides' value
//     pairs (1 for a measure without one, 0 where a side has no value),
//     and skips the candidate unscored (pruned) when the bound is
//     strictly below the bar — the threshold, raised to the k-th best
//     score once k matches are held. Otherwise it scores the candidate,
//     taking per comparator the best value pair and skipping value pairs
//     whose bound cannot beat it. The k best are kept in a bounded heap
//     under the total order ScorePairs sorts by, so nothing sorts the
//     passing matches beyond k, and the answer does not depend on the
//     order candidates are offered in.
//
//   - Two walks, one loop. TopKIDs, what a pipeline's query view calls
//     for every item, walks the length bands when the query has one
//     value under the banded comparator: the multi-valued set first,
//     then the bands nearest the query's length first, each ANDed with
//     the candidate bitset word by word, copying the candidates'
//     sketches from the sketch column in batches, so that their cache
//     misses overlap, and bounding each by a direct call of
//     similarity.EditDistanceBound. It stops at the first band whose
//     bound — the weighted sum with every other comparator at 1 — is
//     strictly below the bar, and counts the candidates it never
//     reached as skipped. Any other query, and TopK and ScorePairs,
//     offer every candidate in turn. TopK and ScorePairs take terms, map
//     each to its ID once and serve the repository benchmark (linkbench)
//     as its reference path; no product path calls them. ScorePairs fans
//     its pairs out across Config.Workers goroutines in chunks
//     (internal/par) and sorts the passing matches under the same total
//     order, so its output is identical at every worker count. The views
//     parallelize TopKIDs across items.
//
// # Live engines and snapshots
//
// An engine follows the concurrency model of rdf.Graph and
// core.InstanceIndex. The engine New or NewWithIDs returns over a
// writer's table belongs to one writer: ApplyPatches
// (internal/linkage/incremental.go) re-indexes local items in place and
// nothing is locked, so it may be queried only while neither
// ApplyPatches nor a mutation of its graphs or table runs. Snapshot
// returns, in O(1), a frozen engine that resolves external items from a
// frozen snapshot of the external graph and reads a frozen ID table and
// frozen columns: the columns are copy-on-write in pages of 128 IDs and
// the length bands in pages of 4,096, so a write after a snapshot copies
// only the pages it touches, and nothing a snapshot reads is ever
// written again. Any number of goroutines may
// query a snapshot while the writer keeps patching. An engine built
// over a frozen table is itself a snapshot.
package linkage

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
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
	// Workers is the number of goroutines ScorePairs, and a query
	// view's LinkTopK, fan out across. 0 means runtime.GOMAXPROCS(0); 1
	// forces the serial path. Output is identical for every worker count.
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
// indexes every comparator's local property values by ID; external
// items are resolved from the external graph on each query. The engine
// New returns is the writer's: see the package comment for its contract
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
	// se is the graph external items are resolved from: the writer's
	// live graph, or the frozen snapshot a snapshot was taken with.
	se *rdf.Graph
	// ids maps local items to the IDs the columns are indexed by.
	ids *core.IDTable
	// numbered is set when the engine owns ids (New): it then gives
	// every local item with values an ID. An engine over a shared table
	// indexes only the items the table knows.
	numbered bool
	// cols holds each comparator's local values, by comparator.
	cols []column
	// band is the comparator whose column is split into length bands
	// (bandedComparator), -1 when none is; bands holds those bands.
	band  int
	bands lengthBands

	// The writer-only half, nil on a snapshot: the live local graph
	// patches re-read from, and the token that owns the column pages
	// the writer may write in place.
	sl  *rdf.Graph
	mut *mutToken
}

// New builds an engine over the external and local graphs, indexing the
// local values under a private ID table that it numbers itself (see the
// package comment). Later mutations of the local graph are observed only
// once the mutated items are passed to ApplyPatches; external items are
// read from se at query time. Its caller is linkbench's reference path.
func New(cfg Config, se, sl *rdf.Graph) (*Engine, error) {
	return build(cfg, se, sl, core.NewIDTable(), true)
}

// NewWithIDs is New over a given ID table, such as the one a
// core.InstanceIndex owns, so that TopKIDs scores the IDs of that
// index's class sets. The engine indexes only the items the table knows
// — every candidate a class set of that table can name — and never
// numbers one: the table's owner does, and ApplyPatches, which must
// then be serialized with that owner's writes, picks an item's values
// up once the owner has given it an ID. Over a frozen table the engine
// is itself a frozen snapshot.
func NewWithIDs(cfg Config, se, sl *rdf.Graph, ids *core.IDTable) (*Engine, error) {
	return build(cfg, se, sl, ids, false)
}

// build compiles an engine over ids; numbered is set when the engine
// owns the table and gives every local item with values an ID.
func build(cfg Config, se, sl *rdf.Graph, ids *core.IDTable, numbered bool) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := &index{comps: compileComparators(cfg), band: bandedComparator(cfg), se: se, ids: ids, numbered: numbered}
	if !ids.Frozen() {
		ix.sl, ix.mut = sl, &mutToken{}
	}
	for i := range ix.comps {
		ix.totalWeight += ix.comps[i].weight
	}
	ix.build(sl)
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

// scoreAbove is the hot path: it scores the resolved external item q
// against local item id, a weighted similarity in [0, 1]. For a
// multi-valued property the best-scoring value pair counts. Comparators
// whose properties are absent on either side score 0 but keep their
// weight in the denominator, penalizing missing information. It skips
// the candidate when the candidate's bound — the weighted sum of its
// comparators' sketch bounds — is strictly below bar, and then reports
// false without scoring. The bound is summed in the score's comparator
// order, so rounding keeps the score at or below it. ks, when not nil,
// is the candidate's one value's sketch under the banded comparator,
// read from the sketch column, for a query with one value there: the
// bound there is then the edit-distance bound, called directly.
func (ix *index) scoreAbove(q [][]value, id uint32, ks *similarity.Sketch, bar float64) (float64, bool) {
	bound := 0.0
	for i := range ix.comps {
		if i == ix.band && ks != nil {
			bound += ix.comps[i].weight * similarity.EditDistanceBound(q[i][0].sketch, *ks)
		} else if evs, lvs := q[i], ix.cols[i].get(id); len(evs) > 0 && len(lvs) > 0 {
			bound += ix.comps[i].weight * ix.comps[i].bound(evs, lvs)
		}
	}
	if bound/ix.totalWeight < bar {
		return 0, false
	}
	num := 0.0
	for i := range ix.comps {
		if evs, lvs := q[i], ix.cols[i].get(id); len(evs) > 0 && len(lvs) > 0 {
			num += ix.comps[i].weight * ix.comps[i].best(evs, lvs)
		}
	}
	return num / ix.totalWeight, true
}

// Match is a declared same-as link with its score.
type Match struct {
	External rdf.Term
	Local    rdf.Term
	Score    float64
}

// Work counts the candidate pairs of one query. Every candidate is
// counted once: Scored when its score was computed, Pruned when its own
// bound was computed and could not reach the bar, and Skipped when
// TopKIDs's band walk stopped before its length band, so that no bound
// of its own was computed.
type Work struct {
	Scored, Pruned, Skipped int
}

// ScorePairs scores candidate pairs and returns those at or above the
// threshold, sorted by descending score (ties broken deterministically).
// Each distinct external item is resolved once before the pairs fan out
// across Config.Workers goroutines; output is identical for every
// worker count. Its caller is linkbench's reference path.
func (e *Engine) ScorePairs(pairs [][2]rdf.Term) []Match {
	ix, threshold := e.ix, e.cfg.Threshold
	exts := map[rdf.Term][][]value{}
	for _, p := range pairs {
		if _, ok := exts[p[0]]; !ok {
			exts[p[0]] = ix.resolve(p[0])
		}
	}
	// Without a cancellable context MapChunks cannot fail.
	out, _ := par.MapChunks(context.Background(), par.Workers(e.cfg.Workers), par.DefaultChunk, pairs, func(p [2]rdf.Term) (Match, bool) {
		s, ok := ix.scoreAbove(exts[p[0]], ix.idOf(p[1]), nil, threshold)
		return Match{External: p[0], Local: p[1], Score: s}, ok && s >= threshold
	})
	sortMatches(out)
	return out
}

// TopK scores ext against every candidate in locs and returns up to k
// matches at or above the threshold, best first under the same total
// order ScorePairs sorts by. k <= 0 means no limit. Its caller is
// linkbench's traced replay.
func (e *Engine) TopK(ext rdf.Term, locs []rdf.Term, k int) []Match {
	r := e.ix.ranker(ext, e.cfg.Threshold, k)
	r.offerTerms(locs)
	return r.result()
}

// TopKIDs is TopK over candidates given as IDs of the engine's ID table,
// such as the Candidates of a core.SpaceReport computed on an instance
// index whose table the engine shares (NewWithIDs), at the same
// snapshot. It also reports the query's work. A query with one value
// under the banded comparator walks the length bands (walkBands);
// any other query offers the candidates in ID order, as TopK does.
func (e *Engine) TopKIDs(ext rdf.Term, cands core.IDSet, k int) ([]Match, Work) {
	r := e.ix.ranker(ext, e.cfg.Threshold, k)
	if b := e.ix.band; b >= 0 && len(r.q[b]) == 1 {
		r.walkBands(cands)
		return r.result(), r.work
	}
	for wi, w := range cands {
		for w != 0 {
			r.offer(uint32(wi<<6|bits.TrailingZeros64(w)), nil, nil)
			w &= w - 1
		}
	}
	return r.result(), r.work
}

// ranker selects one external item's k best matches at or above the
// threshold (k <= 0 keeps every one). It holds at most k matches in a
// heap whose root ranks last, and once the heap is full raises its bar
// from the threshold to the root's score, so that a candidate whose
// bound cannot reach the k-th score is skipped unscored. The skip needs
// the bound strictly below the bar: a candidate that ties the k-th
// score can still win on the Local tie-break.
type ranker struct {
	ix        *index
	q         [][]value
	ext       rdf.Term
	k         int
	threshold float64
	bar       float64
	heap      []Match
	work      Work
}

func (ix *index) ranker(ext rdf.Term, threshold float64, k int) ranker {
	return ranker{ix: ix, q: ix.resolve(ext), ext: ext, k: k, threshold: threshold, bar: threshold}
}

// offerTerms offers every item of locs, mapping its term to its ID once.
func (r *ranker) offerTerms(locs []rdf.Term) {
	for i := range locs {
		r.offer(r.ix.idOf(locs[i]), &locs[i], nil)
	}
}

// offer scores local item id against the query and keeps the match if
// it ranks among the k best so far. loc is the item's term, or nil to
// read it from the ID table, which is done only for a match kept. ks is
// scoreAbove's: the candidate's sketch from the sketch column, or nil.
func (r *ranker) offer(id uint32, loc *rdf.Term, ks *similarity.Sketch) {
	s, ok := r.ix.scoreAbove(r.q, id, ks, r.bar)
	if !ok {
		r.work.Pruned++
		return
	}
	r.work.Scored++
	full := r.k > 0 && len(r.heap) == r.k
	if s < r.threshold || full && s < r.heap[0].Score {
		return
	}
	m := Match{External: r.ext, Score: s}
	if loc != nil {
		m.Local = *loc
	} else {
		m.Local = r.ix.ids.Item(id)
	}
	switch {
	case r.k <= 0:
		r.heap = append(r.heap, m)
		return
	case !full:
		r.heap = append(r.heap, m)
		siftUp(r.heap, len(r.heap)-1)
		if len(r.heap) < r.k {
			return
		}
	case before(&m, &r.heap[0]):
		r.heap[0] = m
		siftDown(r.heap, 0)
	default:
		return
	}
	r.bar = max(r.threshold, r.heap[0].Score)
}

// result returns the kept matches, best first.
func (r *ranker) result() []Match {
	sortMatches(r.heap)
	return r.heap
}

// before reports whether a ranks before b: higher score first, then
// External, then Local by rdf.Term.Compare.
func before(a, b *Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if c := a.External.Compare(b.External); c != 0 {
		return c < 0
	}
	return a.Local.Compare(b.Local) < 0
}

// siftUp and siftDown restore the ranker's heap order: no match ranks
// before its parent, so the root ranks last.
func siftUp(h []Match, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(&h[p], &h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []Match, i int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && before(&h[last], &h[c]) {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return before(&ms[i], &ms[j]) })
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
