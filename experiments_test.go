package datalink

import (
	"runtime"
	"strings"
	"testing"
)

func TestLinkingExperiment(t *testing.T) {
	ds, err := GenerateCorpus(SmallCorpusConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCorpus(ds, LearnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := LinkingExperiment(c, DefaultLinkingConfig(), []int{1, 2, 4})
	if err != nil {
		t.Fatalf("LinkingExperiment: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	base := rows[0]
	if base.Pairs == 0 || base.Matches == 0 {
		t.Fatalf("degenerate experiment: %d pairs, %d matches", base.Pairs, base.Matches)
	}
	if base.Result.Recall() == 0 {
		t.Error("zero recall linking inside correct candidate spaces")
	}
	for _, r := range rows[1:] {
		// Quality metrics must not depend on the worker count.
		if r.Pairs != base.Pairs || r.Matches != base.Matches || r.Result != base.Result {
			t.Errorf("workers=%d row diverges from serial: %+v vs %+v", r.Workers, r, base)
		}
	}
	var sb strings.Builder
	if err := LinkingExperimentTable(rows).Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(sb.String(), "workers") {
		t.Error("table missing workers column")
	}
	if len(LinkingWorkerCounts()) == 0 {
		t.Error("empty default worker ladder")
	}
}

// TestLinkingExperimentMemory bounds what one E8 row allocates on the
// paper corpus resized to 2,000 training links and 8,000 catalog items,
// whose reduced spaces hold 1,088,285 candidate pairs: under 100 MB in
// all. Turning every candidate into a term pair allocated 895 MB there,
// and at the paper's scale (23.7 million pairs) more than an 8 GB
// machine holds. The row's figures are pinned too.
func TestLinkingExperimentMemory(t *testing.T) {
	cfg := PaperCorpusConfig(42)
	cfg.TrainingLinks, cfg.CatalogSize = 2000, 8000
	ds, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCorpus(ds, LearnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows, err := LinkingExperiment(c, DefaultLinkingConfig(), []int{1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 100 << 20
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("one E8 row allocated %d MB", n>>20)
	if n >= bound {
		t.Errorf("one E8 row allocated %d MB, want under %d MB", n>>20, bound>>20)
	}
	if r := rows[0]; r.Pairs != 1088285 || r.Matches != 1161 || r.Result.TruePositives != 1111 {
		t.Errorf("row = %d pairs, %d links, %d true; want 1088285, 1161, 1111", r.Pairs, r.Matches, r.Result.TruePositives)
	}
}
