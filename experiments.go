package datalink

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/obs"
)

// Corpus bundles a generated dataset with its learned model, classifier
// and instance index — the unit every experiment runs on.
type Corpus = eval.Corpus

// CorpusConfig controls synthetic corpus generation (the stand-in for
// the paper's proprietary Thales catalog; the internal/datagen package
// comment gives the substitution argument).
type CorpusConfig = datagen.Config

// Dataset is a generated corpus: ontology, catalog, provider documents,
// training links and ground truth.
type Dataset = datagen.Dataset

// Table1Row, Band and the experiment row types mirror internal/eval.
type (
	// Band is a confidence interval labeling one Table 1 row.
	Band = eval.Band
	// Table1Row is one reproduced row of the paper's Table 1.
	Table1Row = eval.Table1Row
	// PaperStat compares one Section 5 statistic with the paper value.
	PaperStat = eval.PaperStat
	// ReductionRow summarizes per-band linking-space reduction.
	ReductionRow = eval.ReductionRow
	// MethodRow is one line of the blocking comparison.
	MethodRow = eval.MethodRow
	// SweepRow is one point of the support-threshold sweep.
	SweepRow = eval.SweepRow
	// SplitterRow is one line of the splitter ablation.
	SplitterRow = eval.SplitterRow
	// OrderingRow is one line of the rule-ordering ablation.
	OrderingRow = eval.OrderingRow
	// GeneralizationRow is one line of the generalization experiment.
	GeneralizationRow = eval.GeneralizationRow
	// LinkingRow is one line of the in-space linking experiment.
	LinkingRow = eval.LinkingRow
	// ExperimentTable is a renderable fixed-width text table.
	ExperimentTable = eval.Table
)

// PaperCorpusConfig returns the configuration reproducing the paper's
// experimental scale (|TS| = 10265, 566 classes, 226 leaves).
func PaperCorpusConfig(seed int64) CorpusConfig { return datagen.NewConfig(seed) }

// SmallCorpusConfig returns a fast ~1/20-scale configuration for tests,
// examples and quick runs.
func SmallCorpusConfig(seed int64) CorpusConfig { return datagen.SmallConfig(seed) }

// GenerateCorpus builds the synthetic corpus for cfg, deterministically
// in cfg.Seed.
func GenerateCorpus(cfg CorpusConfig) (*Dataset, error) { return datagen.Generate(cfg) }

// CorpusSink receives streamed corpus entities in generation order; see
// StreamCorpus.
type CorpusSink = datagen.Sink

// StreamCorpus generates the corpus for cfg directly into sink without
// materializing graphs or links, so memory stays bounded by the taxonomy
// (O(classes)) rather than the corpus — million-item catalogs generate
// in constant space. Content and order are identical to GenerateCorpus
// for the same cfg. Returns the corpus ontology.
func StreamCorpus(cfg CorpusConfig, sink CorpusSink) (*Ontology, error) {
	return datagen.Stream(cfg, sink)
}

// PartNumberProperty is the provider part-number property of generated
// corpora — the property the paper's expert selected.
var PartNumberProperty = datagen.PartNumberProp

// ManufacturerProperty is the provider manufacturer property of
// generated corpora — present but deliberately not class-indicative.
var ManufacturerProperty = datagen.ManufacturerProp

// BuildCorpus learns a model over a dataset (zero config = paper
// settings on the part-number property) and prepares shared state for
// the experiments below.
func BuildCorpus(ds *Dataset, cfg LearnerConfig) (*Corpus, error) {
	return eval.BuildCorpus(ds, cfg)
}

// PaperBands returns the four confidence bands of the paper's Table 1.
func PaperBands() []Band { return eval.PaperBands() }

// Table1 reproduces the paper's Table 1 over the corpus.
func Table1(c *Corpus, bands []Band) []Table1Row { return eval.Table1(c, bands) }

// Table1Table renders Table 1 rows in the paper's column layout.
func Table1Table(rows []Table1Row) *ExperimentTable { return eval.Table1Table(rows) }

// SectionStats lines the corpus statistics up against Section 5's
// quoted values.
func SectionStats(c *Corpus) []PaperStat { return eval.SectionStats(c) }

// SectionStatsTable renders the statistics comparison.
func SectionStatsTable(stats []PaperStat) *ExperimentTable {
	return eval.SectionStatsTable(stats)
}

// SpaceReduction computes per-band linking-space reduction (E3).
func SpaceReduction(c *Corpus, bands []Band) []ReductionRow { return eval.Reduction(c, bands) }

// SpaceReductionTable renders reduction rows.
func SpaceReductionTable(rows []ReductionRow) *ExperimentTable { return eval.ReductionTable(rows) }

// CompareBlocking evaluates candidate-generation methods on the corpus
// (E4); DefaultBlockingMethods supplies the paper-context line-up.
func CompareBlocking(c *Corpus, methods []blocking.Method) []MethodRow {
	return eval.CompareBlocking(c, methods)
}

// DefaultBlockingMethods returns cartesian, standard blocking, sorted
// neighbourhood, bi-gram indexing and the paper's rule-based reduction.
func DefaultBlockingMethods(c *Corpus) []blocking.Method { return eval.DefaultMethods(c) }

// BlockingTable renders the comparison.
func BlockingTable(rows []MethodRow) *ExperimentTable { return eval.BlockingTable(rows) }

// ThresholdSweep relearns at each support threshold (E5a).
func ThresholdSweep(ds *Dataset, base LearnerConfig, thresholds []float64) ([]SweepRow, error) {
	return eval.ThresholdSweep(ds, base, thresholds)
}

// SweepTable renders the threshold sweep.
func SweepTable(rows []SweepRow) *ExperimentTable { return eval.SweepTable(rows) }

// SplitterAblation relearns with each splitter (E5b).
func SplitterAblation(ds *Dataset, base LearnerConfig, splitters []Splitter) ([]SplitterRow, error) {
	return eval.SplitterAblation(ds, base, splitters)
}

// SplitterAblationTable renders the splitter ablation.
func SplitterAblationTable(rows []SplitterRow) *ExperimentTable { return eval.SplitterTable(rows) }

// OrderingAblation replays decisions under alternative rule orderings
// (E5c) using eval.Policies.
func OrderingAblation(c *Corpus) []OrderingRow {
	return eval.OrderingAblation(c, eval.Policies())
}

// OrderingAblationTable renders the ordering ablation.
func OrderingAblationTable(rows []OrderingRow) *ExperimentTable { return eval.OrderingTable(rows) }

// GeneralizationExperiment compares base and generalized rule sets (E6).
func GeneralizationExperiment(c *Corpus) []GeneralizationRow {
	return eval.GeneralizationExperiment(c)
}

// GeneralizationTable renders the generalization experiment.
func GeneralizationTable(rows []GeneralizationRow) *ExperimentTable {
	return eval.GeneralizationTable(rows)
}

// DefaultLinkingConfig returns the matcher configuration the in-space
// linking experiment uses (edit distance on the part number).
func DefaultLinkingConfig() LinkerConfig { return eval.DefaultLinkingConfig() }

// LinkingWorkerCounts returns the default worker-count ladder (1, 2, 4,
// ... up to all cores).
func LinkingWorkerCounts() []int { return eval.LinkingWorkerCounts() }

// LinkingExperiment runs the matcher inside the rule-reduced linking
// spaces at each worker count (E8), on the path a /v1/link query takes:
// a pipeline over the corpus's model and graphs links every distinct
// training external item to its best candidate through
// QueryView.LinkTopK at k = 1, and the links are scored against the
// training links. A row's Pairs is the candidates LinkTopK expanded
// (CountLinkCandidates), and its Elapsed times the whole call —
// classification, expansion and scoring. Quality is identical across
// rows. cfg's Workers field is overridden per row.
func LinkingExperiment(c *Corpus, cfg LinkerConfig, workers []int) ([]LinkingRow, error) {
	ds := c.Dataset
	p := NewPipelineWithModel(c.Model, ds.External, ds.Local, ds.Ontology)
	if err := p.EnsureLinker(cfg); err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	view, items := p.Snapshot(), ds.ExternalItems()
	rows := make([]LinkingRow, 0, len(workers))
	for _, w := range workers {
		cfg.Workers = w
		tr := obs.NewTrace(nil)
		start := time.Now()
		best, err := view.LinkTopK(obs.WithTrace(context.Background(), tr), items, cfg, 1)
		elapsed := time.Since(start)
		if err != nil {
			return nil, err
		}
		var links []Match
		for _, ms := range best {
			links = append(links, ms...)
		}
		row := LinkingRow{Workers: w, Matches: len(links), Result: EvaluateLinks(links, ds.Training.Links), Elapsed: elapsed}
		for _, n := range tr.Counts() {
			if n.Name == CountLinkCandidates {
				row.Pairs = int(n.N)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LinkingExperimentTable renders the linking experiment.
func LinkingExperimentTable(rows []LinkingRow) *ExperimentTable { return eval.LinkingTable(rows) }

// ToponymConfig sizes the secondary-domain (geographic) corpus.
type ToponymConfig = datagen.ToponymConfig

// GenerateToponyms builds the toponym corpus of the intro's motivating
// scenario (labels embedding place-type words).
func GenerateToponyms(cfg ToponymConfig) (*Dataset, error) {
	return datagen.GenerateToponyms(cfg)
}

// HoldoutRow is one fold of the cross-validation experiment (E7).
type HoldoutRow = eval.HoldoutRow

// HoldoutSummary aggregates cross-validation folds plus the paper's
// resubstitution baseline.
type HoldoutSummary = eval.HoldoutSummary

// CrossValidate runs k-fold held-out evaluation over a corpus's training
// links (E7) — the paper's protocol evaluates on the training set itself;
// this measures generalization to unseen provider items.
func CrossValidate(ds *Dataset, cfg LearnerConfig, k int, seed int64) (HoldoutSummary, error) {
	return eval.CrossValidate(ds, cfg, k, seed)
}

// HoldoutTable renders the cross-validation summary.
func HoldoutTable(s HoldoutSummary) *ExperimentTable { return eval.HoldoutTable(s) }
