package eval

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/linkage"
	"repro/internal/similarity"
)

// LinkingRow is one line of the in-space linking experiment (E8), which
// the root package's LinkingExperiment runs: the downstream matcher runs
// inside the rule-reduced linking spaces at a given worker count.
// Quality metrics are identical across rows by the engine's determinism
// guarantee; the throughput column shows how the served path scales.
type LinkingRow struct {
	Workers int
	// Pairs is the number of candidate pairs the reduced spaces contain.
	Pairs int
	// Matches is the number of items linked: each to its best match at
	// or above the threshold.
	Matches int
	// Result scores the declared links against the training links.
	Result linkage.Result
	// Elapsed is the wall time of the served path over every item:
	// classification, expansion and scoring.
	Elapsed time.Duration
}

// PairsPerSec is the throughput of this run: candidate pairs per second
// of the whole served path.
func (r LinkingRow) PairsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Pairs) / r.Elapsed.Seconds()
}

// DefaultLinkingConfig returns the matcher configuration the experiment
// uses: normalized edit distance on the part number, which is both the
// property the paper's expert selected and a length-bounded measure the
// engine can short-circuit.
func DefaultLinkingConfig() linkage.Config {
	return linkage.Config{
		Comparators: []linkage.Comparator{{
			ExternalProperty: datagen.PartNumberProp,
			LocalProperty:    datagen.PartNumberProp,
			Measure:          similarity.Levenshtein{},
			Weight:           1,
		}},
		Threshold: 0.5,
	}
}

// LinkingWorkerCounts returns the default ladder of worker counts: 1, 2,
// 4, ... up to GOMAXPROCS, deduplicated.
func LinkingWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// LinkingTable renders the experiment.
func LinkingTable(rows []LinkingRow) *Table {
	t := &Table{
		Title:   "In-space linking: parallel matcher over the rule-reduced space",
		Headers: []string{"workers", "candidate pairs", "pairs/s", "links", "precision", "recall", "F1"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Pairs),
			fmt.Sprintf("%.0f", r.PairsPerSec()),
			fmt.Sprintf("%d", r.Matches),
			Percent(r.Result.Precision()),
			Percent(r.Result.Recall()),
			Percent(r.Result.F1()),
		})
	}
	return t
}
