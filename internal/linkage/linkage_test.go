package linkage

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

var (
	pn    = rdf.NewIRI("http://ex.org/pn")
	label = rdf.NewIRI("http://ex.org/label")
)

func item(ns, id string) rdf.Term { return rdf.NewIRI("http://ex.org/" + ns + "/" + id) }

func testGraphs(t testing.TB) (*rdf.Graph, *rdf.Graph) {
	t.Helper()
	se := rdf.NewGraph()
	sl := rdf.NewGraph()
	se.Add(rdf.T(item("e", "1"), pn, rdf.NewLiteral("CRCW0805-100")))
	se.Add(rdf.T(item("e", "1"), label, rdf.NewLiteral("chip resistor")))
	se.Add(rdf.T(item("e", "2"), pn, rdf.NewLiteral("T83-330")))
	se.Add(rdf.T(item("e", "3"), pn, rdf.NewLiteral("ZZZ")))

	sl.Add(rdf.T(item("l", "1"), pn, rdf.NewLiteral("CRCW0805.100")))
	sl.Add(rdf.T(item("l", "1"), label, rdf.NewLiteral("Chip Resistor 100 ohm")))
	sl.Add(rdf.T(item("l", "2"), pn, rdf.NewLiteral("T83/330")))
	sl.Add(rdf.T(item("l", "3"), pn, rdf.NewLiteral("AAAA-999")))
	return se, sl
}

func defaultConfig() Config {
	return Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.JaroWinkler{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.MongeElkan{}, Weight: 1},
		},
		Threshold: 0.85,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := defaultConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Weight: 1}}},
		{Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Exact{}, Weight: 0}}},
		{Comparators: []Comparator{{Measure: similarity.Exact{}, Weight: 1}}},
		{Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Exact{}, Weight: 1}}, Threshold: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Error("New accepted invalid config")
	}
}

// score returns e's score of one pair: TopK's one match for it under
// threshold 0, which every score reaches.
func score(t testing.TB, e *Engine, ext, loc rdf.Term) float64 {
	t.Helper()
	z, err := e.WithOptions(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := z.TopK(ext, []rdf.Term{loc}, 1)
	if len(ms) != 1 {
		t.Fatalf("TopK at threshold 0 kept %d matches for one pair", len(ms))
	}
	return ms[0].Score
}

func TestScore(t *testing.T) {
	se, sl := testGraphs(t)
	e, err := New(defaultConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	same := score(t, e, item("e", "1"), item("l", "1"))
	diff := score(t, e, item("e", "1"), item("l", "3"))
	if same <= diff {
		t.Errorf("Score(same product)=%v <= Score(different)=%v", same, diff)
	}
	if same < 0.8 {
		t.Errorf("Score(same product)=%v unexpectedly low", same)
	}
	// Missing label on e2 keeps the label weight in the denominator.
	s2 := score(t, e, item("e", "2"), item("l", "2"))
	if s2 >= 1 {
		t.Errorf("missing property should cap score below 1, got %v", s2)
	}
	if got := score(t, e, item("e", "404"), item("l", "404")); got != 0 {
		t.Errorf("Score(absent items) = %v", got)
	}
}

func TestScorePairs(t *testing.T) {
	se, sl := testGraphs(t)
	e, _ := New(defaultConfig(), se, sl)
	pairs := [][2]rdf.Term{
		{item("e", "1"), item("l", "1")},
		{item("e", "1"), item("l", "3")},
		{item("e", "2"), item("l", "2")},
	}
	// Low threshold keeps all, sorted by descending score.
	e.cfg.Threshold = 0
	ms := e.ScorePairs(pairs)
	if len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Score > ms[i-1].Score {
			t.Errorf("not sorted desc at %d", i)
		}
	}
	// Tight threshold keeps only real matches.
	e.cfg.Threshold = 0.6
	ms = e.ScorePairs(pairs)
	for _, m := range ms {
		if m.External == item("e", "1") && m.Local == item("l", "3") {
			t.Errorf("false pair above threshold: %+v", m)
		}
	}
}

// linkBest links every item of cands to its best candidate at or above
// the threshold: its TopK with k = 1, the answer a query view gives at
// top_k 1, in match order.
func linkBest(e *Engine, cands map[rdf.Term][]rdf.Term) []Match {
	var out []Match
	for ext, locs := range cands {
		out = append(out, e.TopK(ext, locs, 1)...)
	}
	sortMatches(out)
	return out
}

// TestTopKOneLinksBestCandidate: TopK with k = 1 links each item to its
// best candidate, and an item with no candidate at or above the
// threshold to nothing.
func TestTopKOneLinksBestCandidate(t *testing.T) {
	se, sl := testGraphs(t)
	cfg := defaultConfig()
	cfg.Threshold = 0.5
	e, _ := New(cfg, se, sl)
	cands := map[rdf.Term][]rdf.Term{
		item("e", "1"): {item("l", "1"), item("l", "2"), item("l", "3")},
		item("e", "2"): {item("l", "2"), item("l", "3")},
		item("e", "3"): {item("l", "3")}, // nothing similar
	}
	got := map[rdf.Term]rdf.Term{}
	for _, m := range linkBest(e, cands) {
		got[m.External] = m.Local
	}
	if got[item("e", "1")] != item("l", "1") {
		t.Errorf("e1 linked to %v", got[item("e", "1")])
	}
	if got[item("e", "2")] != item("l", "2") {
		t.Errorf("e2 linked to %v", got[item("e", "2")])
	}
	if _, linked := got[item("e", "3")]; linked {
		t.Error("e3 linked despite no similar candidate")
	}
}

func TestEvaluate(t *testing.T) {
	truth := []core.Link{
		{External: item("e", "1"), Local: item("l", "1")},
		{External: item("e", "2"), Local: item("l", "2")},
		{External: item("e", "4"), Local: item("l", "4")},
	}
	found := []Match{
		{External: item("e", "1"), Local: item("l", "1"), Score: 0.9}, // TP
		{External: item("e", "2"), Local: item("l", "9"), Score: 0.8}, // FP
		{External: item("e", "1"), Local: item("l", "1"), Score: 0.9}, // dup, ignored
	}
	r := Evaluate(found, truth)
	if r.TruePositives != 1 || r.FalsePositives != 1 || r.FalseNegatives != 2 {
		t.Fatalf("result = %+v", r)
	}
	if r.Precision() != 0.5 {
		t.Errorf("Precision = %v", r.Precision())
	}
	if math.Abs(r.Recall()-1.0/3.0) > 1e-12 {
		t.Errorf("Recall = %v", r.Recall())
	}
	wantF1 := 2 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0/3.0)
	if math.Abs(r.F1()-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", r.F1(), wantF1)
	}
	var zero Result
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero Result divides by zero")
	}
}

func TestEndToEndReducedSpaceLinking(t *testing.T) {
	// Full pipeline smoke test on the scenario fixture: learn rules,
	// classify, build subspaces, link within them, evaluate.
	se, sl := testGraphs(t)
	cfg := defaultConfig()
	// e2/l2 lack labels on both sides; the missing-value penalty caps
	// their score near 2/3, so the threshold sits below that.
	cfg.Threshold = 0.6
	e, _ := New(cfg, se, sl)
	truth := []core.Link{
		{External: item("e", "1"), Local: item("l", "1")},
		{External: item("e", "2"), Local: item("l", "2")},
	}
	cands := map[rdf.Term][]rdf.Term{
		item("e", "1"): {item("l", "1"), item("l", "3")},
		item("e", "2"): {item("l", "2")},
		item("e", "3"): {item("l", "3")},
	}
	res := Evaluate(linkBest(e, cands), truth)
	if res.Recall() != 1 {
		t.Errorf("recall = %v, want 1 within correct candidate sets", res.Recall())
	}
	if res.Precision() != 1 {
		t.Errorf("precision = %v, want 1", res.Precision())
	}
}

// TestTopK pins ordering, threshold filtering and the k cut.
func TestTopK(t *testing.T) {
	se, sl := rdf.NewGraph(), rdf.NewGraph()
	ext := rdf.NewIRI("http://ex.org/e/x")
	se.Add(rdf.T(ext, pn, rdf.NewLiteral("ABCDEF")))
	locs := []rdf.Term{}
	for i, v := range []string{"ABCDEF", "ABCDEX", "ABCXYZ", "QQQQQQ"} {
		l := rdf.NewIRI("http://ex.org/l/" + string(rune('a'+i)))
		sl.Add(rdf.T(l, pn, rdf.NewLiteral(v)))
		locs = append(locs, l)
	}
	eng, err := New(Config{
		Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 1}},
		Threshold:   0.4,
	}, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	all := eng.TopK(ext, locs, 0)
	if len(all) != 3 { // QQQQQQ is below threshold
		t.Fatalf("TopK(0) kept %d, want 3: %v", len(all), all)
	}
	if all[0].Score != 1 || all[0].Local != locs[0] {
		t.Fatalf("best match wrong: %v", all[0])
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Score > all[j].Score }) {
		t.Fatal("TopK not sorted by descending score")
	}
	if two := eng.TopK(ext, locs, 2); len(two) != 2 || !reflect.DeepEqual(two, all[:2]) {
		t.Fatalf("TopK(2) = %v", two)
	}
}

// TestPreparedPathMatchesPlainMeasures asserts the engine's prepared
// fast path is observationally identical to scoring with the plain
// measures through a Func wrapper (which can never be prepared).
func TestPreparedPathMatchesPlainMeasures(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(13, 50, 35)
	fast := Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Damerau{}, Weight: 1},
		},
		Threshold: 0.1,
	}
	slow := fast
	slow.Comparators = []Comparator{
		{ExternalProperty: pn, LocalProperty: pn,
			Measure: similarity.Func{F: similarity.Levenshtein{}.Similarity, ID: "lev"}, Weight: 2},
		{ExternalProperty: label, LocalProperty: label,
			Measure: similarity.Func{F: similarity.Damerau{}.Similarity, ID: "dam"}, Weight: 1},
	}
	fe, err := New(fast, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	se2, sl2 := se.Snapshot(), sl.Snapshot()
	we, err := New(slow, se2, sl2)
	if err != nil {
		t.Fatal(err)
	}
	fm, wm := fe.ScorePairs(pairs), we.ScorePairs(pairs)
	if len(fm) != len(wm) {
		t.Fatalf("prepared path found %d matches, plain %d", len(fm), len(wm))
	}
	for i := range fm {
		if fm[i] != wm[i] {
			t.Fatalf("match %d differs: prepared %+v, plain %+v", i, fm[i], wm[i])
		}
	}
}
