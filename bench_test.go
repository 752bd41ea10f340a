package datalink

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/segment"
	"repro/internal/similarity"
	"repro/internal/store"
)

// Benchmarks cover the paper's experiments E1-E6 (the experiment index
// is in the linkrules command's usage, cmd/linkrules) plus the hot paths
// underneath them. Experiment benches run on the small-scale
// corpus so `go test -bench=.` stays fast; the CLI (`linkrules`)
// regenerates the paper-scale numbers.

var (
	benchOnce   sync.Once
	benchCorpus *Corpus
	benchErr    error
)

func corpusForBench(b *testing.B) *Corpus {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := GenerateCorpus(SmallCorpusConfig(77))
		if err != nil {
			benchErr = err
			return
		}
		benchCorpus, benchErr = BuildCorpus(ds, LearnerConfig{})
	})
	if benchErr != nil {
		b.Fatalf("building bench corpus: %v", benchErr)
	}
	return benchCorpus
}

// BenchmarkTable1 regenerates the paper's Table 1 (experiment E1).
func BenchmarkTable1(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := Table1(c, PaperBands())
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSectionStats measures the full learning run that produces the
// Section 5 corpus statistics (experiment E2).
func BenchmarkSectionStats(b *testing.B) {
	c := corpusForBench(b)
	ds := c.Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Learn(LearnerConfig{Properties: []Term{PartNumberProperty}},
			ds.Training, ds.External, ds.Local, ds.Ontology)
		if err != nil {
			b.Fatal(err)
		}
		if m.Stats.RuleCount == 0 {
			b.Fatal("no rules")
		}
	}
}

// BenchmarkSpaceReduction computes the per-band space reduction
// (experiment E3).
func BenchmarkSpaceReduction(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := SpaceReduction(c, PaperBands())
		if len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkBlockingComparison runs the candidate-generation comparison
// (experiment E4).
func BenchmarkBlockingComparison(b *testing.B) {
	c := corpusForBench(b)
	methods := DefaultBlockingMethods(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := CompareBlocking(c, methods)
		if len(rows) != len(methods) {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkThresholdSweep relearns across support thresholds
// (experiment E5a).
func BenchmarkThresholdSweep(b *testing.B) {
	c := corpusForBench(b)
	ths := []float64{0.005, 0.02, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ThresholdSweep(c.Dataset, LearnerConfig{}, ths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitterAblation relearns with separator vs n-gram splitting
// (experiment E5b).
func BenchmarkSplitterAblation(b *testing.B) {
	c := corpusForBench(b)
	sps := []Splitter{
		NewSeparatorSplitter(SplitterOptions{}),
		NewNGramSplitter(3, false, SplitterOptions{}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitterAblation(c.Dataset, LearnerConfig{}, sps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingAblation replays decisions under alternative rule
// orderings (experiment E5c).
func BenchmarkOrderingAblation(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := OrderingAblation(c)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkGeneralization runs the subsumption-generalization experiment
// (experiment E6).
func BenchmarkGeneralization(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := GeneralizationExperiment(c)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkCrossValidate runs the k-fold held-out evaluation
// (experiment E7).
func BenchmarkCrossValidate(b *testing.B) {
	c := corpusForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidate(c.Dataset, LearnerConfig{}, 3, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyItem measures single-item classification, the
// per-document cost at integration time.
func BenchmarkClassifyItem(b *testing.B) {
	c := corpusForBench(b)
	values := map[Term][]string{
		PartNumberProperty: {"CRCW0805-63V-ohm-Q7"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classifier.ClassifyValues(values)
	}
}

// BenchmarkGenerateCorpus measures corpus synthesis.
func BenchmarkGenerateCorpus(b *testing.B) {
	cfg := SmallCorpusConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := GenerateCorpus(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkSeparatorSplit(b *testing.B) {
	sp := segment.NewSeparatorSplitter(segment.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Split("CRCW0805-63V ohm/T83.SMD_220uF")
	}
}

func BenchmarkNGramSplit(b *testing.B) {
	sp := segment.NewNGramSplitter(3, true, segment.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Split("CRCW0805-63V ohm/T83.SMD_220uF")
	}
}

func BenchmarkGraphAdd(b *testing.B) {
	p := rdf.NewIRI("http://ex.org/p")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rdf.NewGraph()
		for j := 0; j < 100; j++ {
			s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", j))
			g.Add(rdf.T(s, p, rdf.NewLiteral(fmt.Sprintf("v%d", j))))
		}
	}
}

func BenchmarkGraphMatch(b *testing.B) {
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://ex.org/p")
	for j := 0; j < 1000; j++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", j%50))
		g.Add(rdf.T(s, p, rdf.NewLiteral(fmt.Sprintf("v%d", j))))
	}
	s25 := rdf.NewIRI("http://ex.org/s25")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Match(s25, p, rdf.Term{}, func(rdf.Triple) bool { n++; return true })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkNTriplesRoundTrip(b *testing.B) {
	g := rdf.NewGraph()
	for j := 0; j < 500; j++ {
		g.Add(rdf.T(
			rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", j)),
			rdf.NewIRI("http://ex.org/p"),
			rdf.NewLiteral(fmt.Sprintf("value %d with text", j)),
		))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, g); err != nil {
			b.Fatal(err)
		}
		if _, err := rdf.ReadNTriples(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- linkage engine benchmarks (tentpole of the parallel value-indexed
// engine): the legacy per-pair graph-lookup path vs the indexed engine,
// serial and parallel. ---

// linkageBenchFixture builds a part-number-shaped workload: two graphs,
// a candidate pair list and the engine config.
func linkageBenchFixture(nExt, nLoc, candsPer int) (se, sl *rdf.Graph, pairs [][2]rdf.Term, cfg linkage.Config) {
	rng := rand.New(rand.NewSource(99))
	se, sl = rdf.NewGraph(), rdf.NewGraph()
	pnProp := rdf.NewIRI("http://ex.org/pn")
	labelProp := rdf.NewIRI("http://ex.org/label")
	randPN := func() string {
		return fmt.Sprintf("CRCW%04d-%dV-%c%d", rng.Intn(1000), rng.Intn(64), 'A'+rune(rng.Intn(26)), rng.Intn(10))
	}
	ext := make([]rdf.Term, nExt)
	loc := make([]rdf.Term, nLoc)
	for i := range ext {
		ext[i] = rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		se.Add(rdf.T(ext[i], pnProp, rdf.NewLiteral(randPN())))
		se.Add(rdf.T(ext[i], labelProp, rdf.NewLiteral("chip resistor "+randPN())))
	}
	for i := range loc {
		loc[i] = rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		sl.Add(rdf.T(loc[i], pnProp, rdf.NewLiteral(randPN())))
		sl.Add(rdf.T(loc[i], labelProp, rdf.NewLiteral("resistor chip "+randPN())))
	}
	for _, e := range ext {
		for k := 0; k < candsPer; k++ {
			pairs = append(pairs, [2]rdf.Term{e, loc[rng.Intn(len(loc))]})
		}
	}
	cfg = linkage.Config{
		Comparators: []linkage.Comparator{
			{ExternalProperty: pnProp, LocalProperty: pnProp, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: labelProp, LocalProperty: labelProp, Measure: similarity.Jaccard{}, Weight: 1},
		},
		Threshold: 0.5,
	}
	return se, sl, pairs, cfg
}

// legacyScorePairs replicates the pre-index engine: every comparator of
// every pair walks the graphs via Objects and re-runs the raw measure.
func legacyScorePairs(cfg linkage.Config, se, sl *rdf.Graph, pairs [][2]rdf.Term) int {
	literalValues := func(g *rdf.Graph, item, prop rdf.Term) []string {
		var out []string
		for _, o := range g.Objects(item, prop) {
			if o.IsLiteral() {
				out = append(out, o.Value)
			}
		}
		return out
	}
	kept := 0
	for _, p := range pairs {
		num, den := 0.0, 0.0
		for _, cmp := range cfg.Comparators {
			den += cmp.Weight
			best := 0.0
			for _, ev := range literalValues(se, p[0], cmp.ExternalProperty) {
				for _, lv := range literalValues(sl, p[1], cmp.LocalProperty) {
					if s := cmp.Measure.Similarity(ev, lv); s > best {
						best = s
					}
				}
			}
			num += cmp.Weight * best
		}
		if num/den >= cfg.Threshold {
			kept++
		}
	}
	return kept
}

// BenchmarkScorePairsGraphLookup is the old hot path: graph lookups and
// raw measure calls per pair. The allocs/op column is the point.
func BenchmarkScorePairsGraphLookup(b *testing.B) {
	se, sl, pairs, cfg := linkageBenchFixture(500, 500, 8)
	b.SetBytes(int64(len(pairs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if legacyScorePairs(cfg, se, sl, pairs) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkScorePairsSerial is the value-indexed engine on one worker:
// zero graph lookups and near-zero allocations inside Score.
func BenchmarkScorePairsSerial(b *testing.B) {
	se, sl, pairs, cfg := linkageBenchFixture(500, 500, 8)
	cfg.Workers = 1
	eng, err := linkage.New(cfg, se, sl)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pairs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(eng.ScorePairs(pairs)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkScorePairsParallel is the same engine fanned out across all
// cores (Workers=0).
func BenchmarkScorePairsParallel(b *testing.B) {
	se, sl, pairs, cfg := linkageBenchFixture(500, 500, 8)
	eng, err := linkage.New(cfg, se, sl)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pairs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(eng.ScorePairs(pairs)) == 0 {
			b.Fatal("no matches")
		}
	}
}

// paperCorpus generates the paper-scale corpus (a 30,000-item catalog)
// and splits its expert links, shuffled at seed 42, into 70% training
// and 30% held-out links.
func paperCorpus(tb testing.TB) (ds *Dataset, train, held []Link) {
	tb.Helper()
	ds, err := GenerateCorpus(PaperCorpusConfig(42))
	if err != nil {
		tb.Fatal(err)
	}
	links := append([]Link(nil), ds.Training.Links...)
	rand.New(rand.NewSource(42)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	cut := len(links) * 7 / 10
	return ds, links[:cut], links[cut:]
}

// paperPipeline builds a pipeline on paperCorpus with the default
// linker's engine and a model learned from the training links. It
// returns the pipeline, the corpus, and the training and held-out links.
func paperPipeline(tb testing.TB) (p *Pipeline, ds *Dataset, train, held []Link) {
	tb.Helper()
	ds, train, held = paperCorpus(tb)
	p, err := NewPipeline(LearnerConfig{}, TrainingSet{Links: train}, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EnsureLinker(DefaultLinkingConfig()); err != nil {
		tb.Fatal(err)
	}
	return p, ds, train, held
}

// firstLearn is a service's first learn below HTTP: it learns a model
// from the training links, builds a pipeline around it (the instance
// index), builds the default linker's engine and publishes a snapshot.
func firstLearn(tb testing.TB, ds *Dataset, train []Link) {
	m, err := LearnCtx(context.Background(), LearnerConfig{}, TrainingSet{Links: train}, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		tb.Fatal(err)
	}
	p := NewPipelineWithModel(m, ds.External, ds.Local, ds.Ontology)
	if err := p.EnsureLinker(DefaultLinkingConfig()); err != nil {
		tb.Fatal(err)
	}
	p.Snapshot()
}

// BenchmarkFirstLearn is firstLearn on paperCorpus. What it allocates
// decides whether a garbage collection lands inside a service's first
// learn; TestFirstLearnAllocation bounds it.
func BenchmarkFirstLearn(b *testing.B) {
	ds, train, _ := paperCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		firstLearn(b, ds, train)
	}
}

// firstLearnAllocBound bounds what a first learn on paperCorpus may
// allocate, the ontology's closure included. A service boot leaves
// about 70 MB of corpus live, and the collector may start a cycle once
// about 70% of that again has been allocated, so this number decides
// whether a collection lands inside a first learn.
const firstLearnAllocBound = 64 << 20

// TestFirstLearnAllocation pins the bytes one first learn allocates,
// by runtime.MemStats.TotalAlloc.
func TestFirstLearnAllocation(t *testing.T) {
	ds, train, _ := paperCorpus(t)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	firstLearn(t, ds, train)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a first learn allocated %.1f MB", float64(got)/(1<<20))
	if got > firstLearnAllocBound {
		t.Errorf("a first learn allocated %.1f MB, want at most %d MB", float64(got)/(1<<20), firstLearnAllocBound>>20)
	}
}

// pairsScoredPerItem is what TestLinkTopKPairsScored allows the first
// pairsScoredItems held-out items of paperCorpus to score, per item, of
// about 11,000 candidates each. Bounded by rune length alone, the engine
// scored 5,409 per item there; bounded by rune-count sketches, it scores
// 304. boundsPerItem bounds the bound evaluations, the pairs scored plus
// those pruned by their own bound: with a bound for every candidate
// they were about 11,150 per item; walking length bands, about 5,200.
const (
	pairsScoredItems   = 500
	pairsScoredPerItem = 400
	boundsPerItem      = 6000
)

// TestLinkTopKPairsScored links the first pairsScoredItems held-out
// items of paperPipeline through QueryView.LinkTopK at top 3 with the
// default linker, as a /v1/link request does, and bounds the pairs
// scored and the bound evaluations that its trace counts. Every
// candidate must be counted once: scored, pruned or skipped.
func TestLinkTopKPairsScored(t *testing.T) {
	p, _, _, held := paperPipeline(t)
	items := make([]Term, pairsScoredItems)
	for i := range items {
		items[i] = held[i].External
	}
	tr := obs.NewTrace(nil)
	if _, err := p.Snapshot().LinkTopK(obs.WithTrace(context.Background(), tr), items, DefaultLinkingConfig(), 3); err != nil {
		t.Fatal(err)
	}
	cands, scored := traceCount(tr, CountLinkCandidates), traceCount(tr, CountLinkPairsScored)
	pruned, skipped := traceCount(tr, CountLinkPairsPruned), traceCount(tr, CountLinkPairsSkipped)
	t.Logf("%d items: %d candidates, %d pairs scored (%.1f per item, %.2f%%), %d bound evaluations (%.1f per item), %d skipped",
		len(items), cands, scored, float64(scored)/float64(len(items)), 100*float64(scored)/float64(cands),
		scored+pruned, float64(scored+pruned)/float64(len(items)), skipped)
	if scored > pairsScoredItems*pairsScoredPerItem {
		t.Errorf("%d items scored %d pairs, want at most %d per item", len(items), scored, pairsScoredPerItem)
	}
	if scored+pruned > pairsScoredItems*boundsPerItem {
		t.Errorf("%d items evaluated %d bounds, want at most %d per item", len(items), scored+pruned, boundsPerItem)
	}
	if scored+pruned+skipped != cands {
		t.Errorf("scored %d + pruned %d + skipped %d != %d candidates", scored, pruned, skipped, cands)
	}
}

// traceCount returns the work counter name of tr, 0 when it was never
// added to.
func traceCount(tr *obs.Trace, name string) int64 {
	for _, c := range tr.Counts() {
		if c.Name == name {
			return c.N
		}
	}
	return 0
}

// BenchmarkLinkTopK is the serving path of /v1/link below HTTP: each op
// is one held-out item of paperPipeline through QueryView.LinkTopK with
// top 3 and the default linker, the items taken in turn. With the timer
// stopped, it links the same items once more under an obs.Trace and
// reports per op the candidate pairs they scored, the bound evaluations
// (scored plus pruned) and the candidates skipped with their length
// band.
func BenchmarkLinkTopK(b *testing.B) {
	p, _, _, held := paperPipeline(b)
	cfg := DefaultLinkingConfig()
	view := p.Snapshot()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := view.LinkTopK(ctx, []Term{held[i%len(held)].External}, cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tr := obs.NewTrace(nil)
	ctx = obs.WithTrace(ctx, tr)
	for i := 0; i < b.N; i++ {
		if _, err := view.LinkTopK(ctx, []Term{held[i%len(held)].External}, cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
	scored, pruned := traceCount(tr, CountLinkPairsScored), traceCount(tr, CountLinkPairsPruned)
	b.ReportMetric(float64(scored)/float64(b.N), "pairs_scored/op")
	b.ReportMetric(float64(scored+pruned)/float64(b.N), "bounds/op")
	b.ReportMetric(float64(traceCount(tr, CountLinkPairsSkipped))/float64(b.N), "skipped/op")
}

// BenchmarkRelearn is a relearn as the service pays it after its first
// learn: each op learns a model from paperPipeline's training links,
// installs it with SetModel, which keeps the instance index and the
// default linker's engine, and publishes a snapshot.
func BenchmarkRelearn(b *testing.B) {
	p, ds, train, _ := paperPipeline(b)
	p.Snapshot()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := LearnCtx(ctx, LearnerConfig{}, TrainingSet{Links: train}, ds.External, ds.Local, ds.Ontology)
		if err != nil {
			b.Fatal(err)
		}
		if p.SetModel(m) {
			b.Fatal("SetModel rebuilt the indexes of an unchanged catalog")
		}
		p.Snapshot()
	}
}

// --- live-service benchmarks: incremental index maintenance. ---

// upsertCatalog is the catalog size of the upsert benchmarks, the size
// of the paper-scale corpus, so a shard copy costs what it costs there.
const upsertCatalog = 30000

// changeLocalPN rewrites the part number of catalog item i in sl and
// returns the item.
func changeLocalPN(sl *rdf.Graph, i int) rdf.Term {
	pnProp := rdf.NewIRI("http://ex.org/pn")
	item := rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i%upsertCatalog))
	for _, o := range sl.Objects(item, pnProp) {
		sl.Remove(rdf.T(item, pnProp, o))
	}
	sl.Add(rdf.T(item, pnProp, rdf.NewLiteral(fmt.Sprintf("CRCW%04d-UP", i))))
	return item
}

// BenchmarkUpsert is the cost of keeping the writer's engine current on
// a catalog change, as the service pays it: one local item changes in
// the graph, is re-indexed in place, and a snapshot of the graph and the
// engine is published, so every iteration also pays the copy-on-write
// copy of the index shard it touches. Compare with
// BenchmarkUpsertFullRebuild, the cost of the same mutation without
// incremental maintenance.
func BenchmarkUpsert(b *testing.B) {
	se, sl, _, cfg := linkageBenchFixture(1, upsertCatalog, 1)
	eng, err := linkage.New(cfg, se, sl)
	if err != nil {
		b.Fatal(err)
	}
	eng.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := changeLocalPN(sl, i)
		eng.ApplyPatches([]linkage.IndexPatch{{Side: linkage.LocalSide, Items: []rdf.Term{item}}})
		sl.Snapshot()
		eng.Snapshot()
	}
}

// BenchmarkUpsertFullRebuild applies the same single-item mutation but
// rebuilds the whole value index with linkage.New before publishing,
// the only option without incremental maintenance.
func BenchmarkUpsertFullRebuild(b *testing.B) {
	se, sl, _, cfg := linkageBenchFixture(1, upsertCatalog, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changeLocalPN(sl, i)
		sl.Snapshot()
		eng, err := linkage.New(cfg, se, sl)
		if err != nil {
			b.Fatal(err)
		}
		eng.Snapshot()
	}
}

// --- snapshot-isolation benchmarks: the cost of publishing a frozen
// query view after a mutation, vs the deep copy it replaces, and the
// cost of one incremental instance-index update vs the full rebuild. ---

// snapshotBenchGraph is a mutating-service-shaped graph: one mutation
// lands, then a fresh point-in-time view is needed for queries.
func snapshotBenchGraph() (*rdf.Graph, []rdf.Triple) {
	se, _, _, _ := linkageBenchFixture(2000, 2000, 1)
	toggles := make([]rdf.Triple, 256)
	pnProp := rdf.NewIRI("http://ex.org/pn")
	for i := range toggles {
		toggles[i] = rdf.T(
			rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", i)),
			pnProp,
			rdf.NewLiteral(fmt.Sprintf("TOGGLE-%d", i)),
		)
	}
	return se, toggles
}

// BenchmarkSnapshot measures one mutate-then-snapshot cycle: the
// copy-on-write snapshot is O(1) and the mutation path-copies only the
// buckets it touches (plus one pointer-shallow top-level map copy per
// cycle). Compare with BenchmarkSnapshotFullClone, the deep copy a
// snapshotless design pays for the same isolation; the acceptance bar
// is orders of magnitude.
func BenchmarkSnapshot(b *testing.B) {
	g, toggles := snapshotBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := toggles[i%len(toggles)]
		if !g.Add(tr) {
			g.Remove(tr)
		}
		if snap := g.Snapshot(); snap.Len() == 0 || !snap.Frozen() {
			b.Fatal("bad snapshot")
		}
	}
}

// BenchmarkSnapshotFullClone applies the same single mutation but deep
// copies the whole graph for the frozen view.
func BenchmarkSnapshotFullClone(b *testing.B) {
	g, toggles := snapshotBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := toggles[i%len(toggles)]
		if !g.Add(tr) {
			g.Remove(tr)
		}
		if c := g.Clone(); c.Len() == 0 {
			b.Fatal("bad clone")
		}
	}
}

// instanceBenchFixture is a typed catalog: nInst instances spread over a
// two-level hierarchy of nClasses leaf classes under one root.
func instanceBenchFixture(nInst, nClasses int) (*rdf.Graph, *Ontology, []Term) {
	sl := rdf.NewGraph()
	ol := NewOntology()
	root := NewIRI("http://ex.org/onto#Part")
	ol.AddClass(root)
	classes := make([]Term, nClasses)
	for i := range classes {
		classes[i] = NewIRI(fmt.Sprintf("http://ex.org/onto#C%d", i))
		ol.AddClass(classes[i])
		ol.AddSubClassOf(classes[i], root)
	}
	for i := 0; i < nInst; i++ {
		sl.Add(rdf.T(
			NewIRI(fmt.Sprintf("http://ex.org/l/%d", i)),
			RDFType,
			classes[i%nClasses],
		))
	}
	return sl, ol, classes
}

// BenchmarkInstanceUpsert is the cost of keeping the instance index
// current when one local item changes class: a per-item incremental
// update. Compare with BenchmarkInstanceUpsertFullRebuild, the full
// NewInstanceIndex pass the service paid per upsert before; the
// acceptance bar is >= 10x.
func BenchmarkInstanceUpsert(b *testing.B) {
	const nInst, nClasses = 10000, 50
	sl, ol, classes := instanceBenchFixture(nInst, nClasses)
	ix := NewInstanceIndex(sl, ol)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := NewIRI(fmt.Sprintf("http://ex.org/l/%d", i%nInst))
		for _, tr := range sl.Find(item, RDFType, Term{}) {
			sl.Remove(tr)
		}
		next := classes[(i+1)%nClasses]
		sl.Add(T(item, RDFType, next))
		ix.UpsertInstance(item, []Term{next})
	}
	if ix.Total() != nInst {
		b.Fatalf("index drifted: %d instances, want %d", ix.Total(), nInst)
	}
}

// BenchmarkInstanceUpsertFullRebuild applies the same single-item class
// change but rebuilds the whole index, the only option before
// incremental maintenance existed.
func BenchmarkInstanceUpsertFullRebuild(b *testing.B) {
	const nInst, nClasses = 10000, 50
	sl, ol, classes := instanceBenchFixture(nInst, nClasses)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := NewIRI(fmt.Sprintf("http://ex.org/l/%d", i%nInst))
		for _, tr := range sl.Find(item, RDFType, Term{}) {
			sl.Remove(tr)
		}
		sl.Add(T(item, RDFType, classes[(i+1)%nClasses]))
		if ix := NewInstanceIndex(sl, ol); ix.Total() != nInst {
			b.Fatalf("index drifted: %d instances, want %d", ix.Total(), nInst)
		}
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	m := similarity.Levenshtein{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// BenchmarkLevenshteinUnicode hits the rune path (multi-byte input), the
// slow branch the ASCII fast path avoids.
func BenchmarkLevenshteinUnicode(b *testing.B) {
	m := similarity.Levenshtein{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity("CRCW0805-63V-Ω", "CRCW0812/63V/Ω")
	}
}

func BenchmarkDamerau(b *testing.B) {
	m := similarity.Damerau{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// distSink keeps distance results observable so the kernel loops are
// not optimized away.
var distSink int

// BenchmarkMyersLevenshtein times the exported distance entry point on
// the ASCII fast path, which dispatches to the bit-parallel Myers
// kernel — the exact call the link engine's hot loop makes.
func BenchmarkMyersLevenshtein(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += similarity.LevenshteinDistance("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// BenchmarkMyersDamerau is the transposition-aware counterpart.
func BenchmarkMyersDamerau(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += similarity.DamerauDistance("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// BenchmarkReferenceLevenshtein times the retained DP oracle on the same
// input, the denominator of the kernel speedup.
func BenchmarkReferenceLevenshtein(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += similarity.ReferenceLevenshteinDistance("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// BenchmarkReferenceDamerau is the DP baseline for the Damerau kernel.
func BenchmarkReferenceDamerau(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink += similarity.ReferenceDamerauDistance("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

// BenchmarkLearnParallel measures a full Learn over the small corpus at
// one worker and at one worker per CPU. The model is byte-identical at
// both settings (TestLearnDeterministicAcrossWorkers); only wall time
// differs, and on a single-CPU host the two are honestly equal.
func BenchmarkLearnParallel(b *testing.B) {
	ds, err := GenerateCorpus(SmallCorpusConfig(77))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := LearnerConfig{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LearnCtx(context.Background(), cfg, ds.Training, ds.External, ds.Local, ds.Ontology); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	m := similarity.JaroWinkler{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity("CRCW0805-63V-ohm", "CRCW0812/63V/ohm")
	}
}

func benchRecords(n int) []blocking.Record {
	out := make([]blocking.Record, n)
	for i := range out {
		out[i] = blocking.Record{
			ID:  fmt.Sprintf("r%d", i),
			Key: fmt.Sprintf("CRCW%04d-%dV", i%500, i%64),
		}
	}
	return out
}

func BenchmarkBlockingStandard(b *testing.B) {
	ext, loc := benchRecords(500), benchRecords(1000)
	m := blocking.Standard{Key: blocking.PrefixKey(6)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Pairs(ext, loc)
	}
}

func BenchmarkBlockingSortedNeighborhood(b *testing.B) {
	ext, loc := benchRecords(500), benchRecords(1000)
	m := blocking.SortedNeighborhood{Window: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Pairs(ext, loc)
	}
}

func BenchmarkBlockingBigram(b *testing.B) {
	ext, loc := benchRecords(200), benchRecords(400)
	m := blocking.Bigram{Threshold: 0.8, MaxSublists: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Pairs(ext, loc)
	}
}

// --- durability benchmarks (tentpole of the snapshot+WAL persistence):
// the binary snapshot codec vs the N-Triples text path on the bench
// corpus, and WAL append latency per mutation. ---

// benchGraphs returns the bench corpus's two graphs (the data a service
// checkpoint actually serializes).
func benchGraphs(b *testing.B) (se, sl *rdf.Graph) {
	c := corpusForBench(b)
	return c.Dataset.External, c.Dataset.Local
}

func BenchmarkSnapshotEncode(b *testing.B) {
	se, sl := benchGraphs(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := rdf.EncodeSnapshot(&buf, se); err != nil {
			b.Fatal(err)
		}
		if err := rdf.EncodeSnapshot(&buf, sl); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	se, sl := benchGraphs(b)
	var seBuf, slBuf bytes.Buffer
	if err := rdf.EncodeSnapshot(&seBuf, se); err != nil {
		b.Fatal(err)
	}
	if err := rdf.EncodeSnapshot(&slBuf, sl); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(seBuf.Len() + slBuf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.DecodeSnapshot(bytes.NewReader(seBuf.Bytes())); err != nil {
			b.Fatal(err)
		}
		if _, err := rdf.DecodeSnapshot(bytes.NewReader(slBuf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRoundTripBinary vs ...NTriples is the acceptance
// comparison: full encode+decode of the bench corpus through each codec.
func BenchmarkSnapshotRoundTripBinary(b *testing.B) {
	se, sl := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []*rdf.Graph{se, sl} {
			var buf bytes.Buffer
			if err := rdf.EncodeSnapshot(&buf, g); err != nil {
				b.Fatal(err)
			}
			if _, err := rdf.DecodeSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSnapshotRoundTripNTriples(b *testing.B) {
	se, sl := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []*rdf.Graph{se, sl} {
			var buf bytes.Buffer
			if err := rdf.WriteNTriples(&buf, g); err != nil {
				b.Fatal(err)
			}
			if _, err := rdf.ReadNTriples(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// walAppendRecord mirrors a single-item service upsert, the WAL's
// dominant record shape.
func walAppendRecord(i int) *store.Record {
	return &store.Record{
		Op: store.OpUpsert,
		Upsert: &store.UpsertOp{
			Side: store.External,
			Items: []store.Item{{
				ID:    fmt.Sprintf("http://provider.example/item/D%06d", i),
				Props: map[string][]string{"http://provider.example/prop#partNumber": {fmt.Sprintf("RES %04d TX99 B%d", i, i%7)}},
			}},
		},
	}
}

func benchWALAppend(b *testing.B, mode store.FsyncMode) {
	st, _, err := store.Open(b.TempDir(), store.Options{Fsync: mode, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(walAppendRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(st.Stats().WALBytes / int64(b.N))
}

func BenchmarkWALAppend(b *testing.B)       { benchWALAppend(b, store.FsyncNever) }
func BenchmarkWALAppendAlways(b *testing.B) { benchWALAppend(b, store.FsyncAlways) }
