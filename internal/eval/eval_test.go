package eval

import (
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
)

// smallCorpus builds one shared corpus for the harness tests.
func smallCorpus(t testing.TB) *Corpus {
	t.Helper()
	ds, err := datagen.Generate(datagen.SmallConfig(21))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c, err := BuildCorpus(ds, core.LearnerConfig{})
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}
	return c
}

func TestBuildCorpusDefaults(t *testing.T) {
	c := smallCorpus(t)
	if c.Model.Rules.Len() == 0 {
		t.Fatal("no rules learned on the small corpus")
	}
	props := c.Classifier.Properties()
	if len(props) != 1 || props[0] != datagen.PartNumberProp {
		t.Errorf("classifier properties = %v, want [partNumber]", props)
	}
	if c.Instances.Total() != c.Dataset.Config.CatalogSize {
		t.Errorf("instance total = %d, want %d", c.Instances.Total(), c.Dataset.Config.CatalogSize)
	}
}

func TestTable1Shape(t *testing.T) {
	c := smallCorpus(t)
	rows := Table1(c, PaperBands())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The top band must exist, be perfectly or near-perfectly precise,
	// and recall must be monotonically non-decreasing down the table.
	if rows[0].Rules == 0 || rows[0].Decisions == 0 {
		t.Fatalf("empty top band: %+v", rows[0])
	}
	if rows[0].Precision < 0.95 {
		t.Errorf("top-band precision = %v, want >= 0.95", rows[0].Precision)
	}
	for b := 1; b < len(rows); b++ {
		if rows[b].CumulativeRecall < rows[b-1].CumulativeRecall {
			t.Errorf("recall not cumulative at band %d: %v < %v",
				b, rows[b].CumulativeRecall, rows[b-1].CumulativeRecall)
		}
	}
	// Precision should not increase as confidence drops (noise tolerance:
	// lower bands may be empty, in which case precision is 0 and skipped).
	prev := rows[0].Precision
	for b := 1; b < len(rows); b++ {
		if rows[b].Decisions == 0 {
			continue
		}
		if rows[b].Precision > prev+0.05 {
			t.Errorf("precision rose at band %d: %v after %v", b, rows[b].Precision, prev)
		}
		prev = rows[b].Precision
	}
	// Per-band decisions never exceed |TS| (rows may overlap, but one
	// item decides at most once per band).
	for _, r := range rows {
		if r.Decisions > c.Model.TrainingSize() {
			t.Errorf("band %s decisions %d exceed |TS| %d", r.Band.Label, r.Decisions, c.Model.TrainingSize())
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	c := smallCorpus(t)
	out := Table1Table(Table1(c, PaperBands())).String()
	for _, want := range []string{"conf.", "#rules", "#dec.", "prec.", "recall", "lift", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 { // title + header + rule + 4 bands
		t.Errorf("rendered table has %d lines:\n%s", len(lines), out)
	}
}

func TestSectionStats(t *testing.T) {
	c := smallCorpus(t)
	stats := SectionStats(c)
	if len(stats) < 6 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	byName := map[string]PaperStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	ts := byName["training links (|TS|)"]
	if ts.Measured != float64(c.Dataset.Config.TrainingLinks) {
		t.Errorf("|TS| measured = %v", ts.Measured)
	}
	if ts.Paper != 10265 {
		t.Errorf("|TS| paper = %v", ts.Paper)
	}
	out := SectionStatsTable(stats).String()
	if !strings.Contains(out, "distinct segments") {
		t.Errorf("stats table missing rows:\n%s", out)
	}
}

func TestReduction(t *testing.T) {
	c := smallCorpus(t)
	rows := Reduction(c, PaperBands())
	sawItems := false
	for _, r := range rows {
		if r.Items == 0 {
			continue
		}
		sawItems = true
		if r.AvgReductionFactor <= 1 {
			t.Errorf("band %s: reduction factor %v <= 1", r.Band.Label, r.AvgReductionFactor)
		}
		if r.AvgSpaceShare <= 0 || r.AvgSpaceShare >= 1 {
			t.Errorf("band %s: space share %v out of (0,1)", r.Band.Label, r.AvgSpaceShare)
		}
		if r.Completeness < 0.5 {
			t.Errorf("band %s: completeness %v suspiciously low", r.Band.Label, r.Completeness)
		}
	}
	if !sawItems {
		t.Fatal("no band had items")
	}
	out := ReductionTable(rows).String()
	if !strings.Contains(out, "reduction") {
		t.Errorf("reduction table malformed:\n%s", out)
	}
}

func TestBlockingComparison(t *testing.T) {
	c := smallCorpus(t)
	rows := CompareBlocking(c, DefaultMethods(c))
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]MethodRow{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	cart := byName["cartesian"]
	if cart.ReductionRatio() != 0 || cart.PairsCompleteness() != 1 {
		t.Errorf("cartesian metrics = %+v", cart.Metrics)
	}
	if cart.Candidates != c.Dataset.Config.TrainingLinks*c.Dataset.Config.CatalogSize {
		t.Errorf("cartesian candidates = %d", cart.Candidates)
	}
	rule := byName["rule-space"]
	if rule.Candidates == 0 {
		t.Fatal("rule-space produced no candidates")
	}
	if rule.ReductionRatio() < 0.5 {
		t.Errorf("rule-space reduction ratio = %v, want > 0.5", rule.ReductionRatio())
	}
	// Confidence-filtered rule space is strictly smaller.
	ruleHi := byName["rule-space(conf>=0.8)"]
	if ruleHi.Candidates > rule.Candidates {
		t.Errorf("conf-filtered space larger: %d > %d", ruleHi.Candidates, rule.Candidates)
	}
	out := BlockingTable(rows).String()
	if !strings.Contains(out, "rule-space") || !strings.Contains(out, "cartesian") {
		t.Errorf("blocking table malformed:\n%s", out)
	}
}

func TestThresholdSweep(t *testing.T) {
	c := smallCorpus(t)
	rows, err := ThresholdSweep(c.Dataset, core.LearnerConfig{}, []float64{0.005, 0.02, 0.05})
	if err != nil {
		t.Fatalf("ThresholdSweep: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher thresholds admit fewer (or equal) rules.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rules > rows[i-1].Rules {
			t.Errorf("rules rose with threshold: %v then %v", rows[i-1], rows[i])
		}
	}
	if rows[0].Rules == 0 {
		t.Error("lowest threshold produced no rules")
	}
	out := SweepTable(rows).String()
	if !strings.Contains(out, "0.0050") {
		t.Errorf("sweep table malformed:\n%s", out)
	}
}

func TestSplitterAblation(t *testing.T) {
	c := smallCorpus(t)
	splitters := []segment.Splitter{
		segment.NewSeparatorSplitter(segment.Options{}),
		segment.NewNGramSplitter(3, false, segment.Options{}),
	}
	rows, err := SplitterAblation(c.Dataset, core.LearnerConfig{}, splitters)
	if err != nil {
		t.Fatalf("SplitterAblation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Splitter != "separators(non-alphanumeric)" {
		t.Errorf("row 0 splitter = %q", rows[0].Splitter)
	}
	if rows[0].Rules == 0 {
		t.Error("separator splitter produced no rules")
	}
	out := SplitterTable(rows).String()
	if !strings.Contains(out, "3-grams") {
		t.Errorf("splitter table malformed:\n%s", out)
	}
}

func TestOrderingAblation(t *testing.T) {
	c := smallCorpus(t)
	rows := OrderingAblation(c, Policies())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All policies decide on the same item set.
	for i := 1; i < len(rows); i++ {
		if rows[i].Decisions != rows[0].Decisions {
			t.Errorf("decision counts differ: %+v", rows)
		}
	}
	// The paper's policy should not lose to support-first.
	paper, support := rows[0], rows[2]
	if paper.Precision < support.Precision-0.02 {
		t.Errorf("paper policy precision %v well below support-first %v", paper.Precision, support.Precision)
	}
	out := OrderingTable(rows).String()
	if !strings.Contains(out, "confidence,lift (paper)") {
		t.Errorf("ordering table malformed:\n%s", out)
	}
}

func TestGeneralizationExperiment(t *testing.T) {
	c := smallCorpus(t)
	rows := GeneralizationExperiment(c)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, added, replaced := rows[0], rows[1], rows[2]
	if base.ParentRules != 0 {
		t.Errorf("base has %d parent rules", base.ParentRules)
	}
	if added.Rules < base.Rules {
		t.Errorf("added variant has fewer rules: %d < %d", added.Rules, base.Rules)
	}
	if replaced.ParentRules == 0 && added.ParentRules == 0 {
		t.Log("no generalizable sibling rules on this corpus (acceptable, depends on seed)")
	}
	out := GeneralizationTable(rows).String()
	if !strings.Contains(out, "base (leaf rules)") {
		t.Errorf("generalization table malformed:\n%s", out)
	}
}

func TestRuleSpaceMethodFiltersByConfidence(t *testing.T) {
	c := smallCorpus(t)
	ext, loc, _ := BlockingRecords(c)
	if len(ext) != c.Dataset.Config.TrainingLinks {
		t.Fatalf("external records = %d", len(ext))
	}
	if len(loc) != c.Dataset.Config.CatalogSize {
		t.Fatalf("local records = %d", len(loc))
	}
	all := RuleSpace{Classifier: c.Classifier, Instances: c.Instances}
	strict := RuleSpace{Classifier: c.Classifier, Instances: c.Instances, MinConfidence: 2}
	if got := len(strict.Pairs(ext, loc)); got != 0 {
		t.Errorf("impossible confidence floor still produced %d pairs", got)
	}
	if got := len(all.Pairs(ext[:50], loc)); got == 0 {
		t.Error("rule space empty on 50 externals")
	}
	if got, want := all.Name(), "rule-space"; got != want {
		t.Errorf("Name = %q", got)
	}
	if got, want := strict.Name(), "rule-space(conf>=2.0)"; got != want {
		t.Errorf("Name = %q", got)
	}
}

func TestPercentFormat(t *testing.T) {
	tests := []struct {
		x    float64
		want string
	}{
		{1, "100%"},
		{0.969, "96.9%"},
		{0.5, "50%"},
		{0, "0%"},
	}
	for _, tc := range tests {
		if got := Percent(tc.x); got != tc.want {
			t.Errorf("Percent(%v) = %q, want %q", tc.x, got, tc.want)
		}
	}
}

func TestRenderAlignsColumns(t *testing.T) {
	tbl := &Table{
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"wide-cell-value", "x"}, {"y", "z"}},
	}
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Column 2 starts at the same offset in header and data lines.
	hIdx := strings.Index(lines[0], "long-header")
	dIdx := strings.Index(lines[2], "x")
	if hIdx != dIdx {
		t.Errorf("column misaligned: header at %d, data at %d\n%s", hIdx, dIdx, out)
	}
}

var _ = blocking.Cartesian{} // keep the import explicit for the comparison test
