package linkage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

// seededGraphs builds a randomized external/local graph pair plus the
// candidate structures the engine consumes, deterministically in seed.
// Values mix ASCII part numbers, multi-byte runes and multi-valued
// properties so every engine code path (byte fast path, rune path,
// token index, sketch bound, missing values) is exercised.
func seededGraphs(seed int64, nExt, nLoc int) (*rdf.Graph, *rdf.Graph, [][2]rdf.Term, map[rdf.Term][]rdf.Term) {
	rng := rand.New(rand.NewSource(seed))
	se, sl := rdf.NewGraph(), rdf.NewGraph()
	alphabet := "ABCDEFGHIJ0123456789-Ωµ"
	runes := []rune(alphabet)
	randVal := func() string {
		n := 3 + rng.Intn(12)
		out := make([]rune, n)
		for i := range out {
			out[i] = runes[rng.Intn(len(runes))]
		}
		return string(out)
	}
	ext := make([]rdf.Term, nExt)
	loc := make([]rdf.Term, nLoc)
	for i := range ext {
		ext[i] = rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		se.Add(rdf.T(ext[i], pn, rdf.NewLiteral(randVal())))
		if rng.Intn(3) == 0 { // multi-valued part number
			se.Add(rdf.T(ext[i], pn, rdf.NewLiteral(randVal())))
		}
		if rng.Intn(4) != 0 { // label sometimes missing
			se.Add(rdf.T(ext[i], label, rdf.NewLiteral(randVal()+" "+randVal())))
		}
	}
	for i := range loc {
		loc[i] = rdf.NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		sl.Add(rdf.T(loc[i], pn, rdf.NewLiteral(randVal())))
		if rng.Intn(4) != 0 {
			sl.Add(rdf.T(loc[i], label, rdf.NewLiteral(randVal()+" "+randVal())))
		}
	}
	var pairs [][2]rdf.Term
	cands := map[rdf.Term][]rdf.Term{}
	for _, e := range ext {
		for k := 0; k < 8; k++ {
			l := loc[rng.Intn(len(loc))]
			pairs = append(pairs, [2]rdf.Term{e, l})
			cands[e] = append(cands[e], l)
		}
	}
	return se, sl, pairs, cands
}

// TestParallelDeterminism asserts that ScorePairs returns results
// identical to the serial path for every worker count, on a seeded
// corpus large enough to engage the chunked fan-out. Run under -race
// this also checks the workers share no state.
func TestParallelDeterminism(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(41, 120, 80)
	cfg := Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Jaccard{}, Weight: 1},
		},
		Threshold: 0.2,
		Workers:   1,
	}
	serial, err := New(cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := serial.ScorePairs(pairs)
	if len(wantPairs) == 0 {
		t.Fatal("degenerate fixture: no pair matches")
	}
	for _, workers := range []int{0, 2, 3, 7, 16} {
		cfg.Workers = workers
		par, err := New(cfg, se, sl)
		if err != nil {
			t.Fatal(err)
		}
		if got := par.ScorePairs(pairs); !reflect.DeepEqual(got, wantPairs) {
			t.Errorf("ScorePairs(workers=%d) differs from serial output", workers)
		}
		// A re-optioned engine shares the index and must agree too.
		reopt, err := serial.WithOptions(cfg.Threshold, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := reopt.ScorePairs(pairs); !reflect.DeepEqual(got, wantPairs) {
			t.Errorf("WithOptions(workers=%d).ScorePairs differs from serial output", workers)
		}
	}
	if _, err := serial.WithOptions(1.5, 0); err == nil {
		t.Error("WithOptions accepted out-of-range threshold")
	}
	if _, err := serial.WithOptions(0.2, -1); err == nil {
		t.Error("WithOptions accepted negative workers")
	}
}

// TestIndexedScoreMatchesGraphWalk pins the value-indexed score to the
// pre-index semantics: walking the graphs per pair must give the same
// score as the snapshot index, including multi-valued properties,
// missing properties and non-literal objects.
func TestIndexedScoreMatchesGraphWalk(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(43, 40, 30)
	// A non-literal object must be ignored exactly like before.
	se.Add(rdf.T(rdf.NewIRI("http://ex.org/e/0"), pn, rdf.NewIRI("http://ex.org/not-a-literal")))
	cfg := Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Damerau{}, Weight: 1.5},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.MongeElkan{}, Weight: 1},
		},
		Threshold: 0,
	}
	e, err := New(cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	graphScore := func(ext, loc rdf.Term) float64 {
		num, den := 0.0, 0.0
		for _, cmp := range cfg.Comparators {
			den += cmp.Weight
			var evs, lvs []string
			for _, o := range se.Objects(ext, cmp.ExternalProperty) {
				if o.IsLiteral() {
					evs = append(evs, o.Value)
				}
			}
			for _, o := range sl.Objects(loc, cmp.LocalProperty) {
				if o.IsLiteral() {
					lvs = append(lvs, o.Value)
				}
			}
			best := 0.0
			for _, ev := range evs {
				for _, lv := range lvs {
					if s := cmp.Measure.Similarity(ev, lv); s > best {
						best = s
					}
				}
			}
			num += cmp.Weight * best
		}
		return num / den
	}
	for _, p := range pairs {
		if got, want := score(t, e, p[0], p[1]), graphScore(p[0], p[1]); got != want {
			t.Fatalf("Score(%v, %v) = %v, graph walk gives %v", p[0], p[1], got, want)
		}
	}
}
