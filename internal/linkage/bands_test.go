package linkage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

// TestBandWalkVisitsNearestLengthFirst pins the walk on a catalog whose
// ID order is the reverse of its band order: the IDs follow rdf.Term
// order, and the value lengths fall from l/0 to l/3, away from the
// query's. A walk in ID order scores all four candidates, each raising
// the bar a little. The band walk scores the exact match in the
// query's own band first and skips the three farther bands unbounded.
func TestBandWalkVisitsNearestLengthFirst(t *testing.T) {
	se, sl := rdf.NewGraph(), rdf.NewGraph()
	e := item("e", "1")
	se.Add(rdf.T(e, pn, rdf.NewLiteral("ABCDEFGH")))
	for i, v := range []string{"ABCDEFGHIJKLMNOPQRSTUVWX", "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKL", "ABCDEFGH"} {
		sl.Add(rdf.T(item("l", fmt.Sprint(i)), pn, rdf.NewLiteral(v)))
	}
	cfg := Config{Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 1}}}
	eng, err := New(cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	ms, work := snap.TopKIDs(e, allIDs(snap), 1)
	want := []Match{{External: e, Local: item("l", "3"), Score: 1}}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("TopKIDs = %+v, want %+v", ms, want)
	}
	if work != (Work{Scored: 1, Skipped: 3}) {
		t.Errorf("band walk work = %+v, want 1 scored and 3 skipped", work)
	}
	r := snap.ix.ranker(e, 0, 1)
	r.offerTerms(snap.ix.ids.Items(allIDs(snap)))
	if got := r.result(); !reflect.DeepEqual(got, want) || r.work != (Work{Scored: 4}) {
		t.Errorf("walk in ID order = %+v with work %+v, want %+v with 4 scored", got, r.work, want)
	}
}

// bandGraphs builds external items e/0 to e/nExt-1 and local items l/0
// to l/nLoc-1 whose part numbers are 1 to 20 runes over "AB", half of
// them runs of one rune. Two runs of the same rune score exactly their
// length bound, so a walk that skips a band whose bound reaches the bar
// loses a match. Labels are two words of a small vocabulary. One local
// item in seven has two part numbers and one in seven none, and one
// external item in four has two.
func bandGraphs(rng *rand.Rand, nExt, nLoc int) (se, sl *rdf.Graph) {
	value := func() string {
		n := 1 + rng.Intn(20)
		if rng.Intn(2) == 0 {
			return strings.Repeat("A", n)
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = "AB"[rng.Intn(2)]
		}
		return string(b)
	}
	words := []string{"chip", "film", "ohm", "axial"}
	fill := func(g *rdf.Graph, l rdf.Term, pns int) {
		for ; pns > 0; pns-- {
			g.Add(rdf.T(l, pn, rdf.NewLiteral(value())))
		}
		g.Add(rdf.T(l, label, rdf.NewLiteral(words[rng.Intn(4)]+" "+words[rng.Intn(4)])))
	}
	se, sl = rdf.NewGraph(), rdf.NewGraph()
	for i := 0; i < nExt; i++ {
		fill(se, item("e", fmt.Sprint(i)), 1+rng.Intn(4)/3)
	}
	for i := 0; i < nLoc; i++ {
		fill(sl, item("l", fmt.Sprint(i)), []int{1, 1, 1, 1, 1, 2, 0}[i%7])
	}
	return se, sl
}

// TestTopKIDsMatchesRebuild checks TopKIDs, band walk or not, against
// TopK of an engine built fresh on the same graph snapshots, at every
// threshold in {0, 0.5, 0.8} and k in {0, 1, 3}, for every earlier
// snapshot after each round of writes. The catalog of bandGraphs
// numbers its items in rdf.Term order while their lengths are random,
// so band order and ID order disagree, and values change length
// between rounds, so items move between bands after a snapshot was
// taken. It also requires every candidate to be counted once, and some
// to be skipped.
func TestTopKIDsMatchesRebuild(t *testing.T) {
	configs := map[string]Config{
		"levenshtein": {Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 1},
		}},
		"damerau and jaccard": {Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Damerau{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Jaccard{}, Weight: 1},
		}},
		"jaccard before a lighter levenshtein": {Comparators: []Comparator{
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Jaccard{}, Weight: 3},
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 1},
		}},
		"no edit distance": {Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.JaroWinkler{}, Weight: 1},
		}},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			se, sl := bandGraphs(rng, 12, 150)
			eng, err := New(cfg, se, sl)
			if err != nil {
				t.Fatal(err)
			}
			type published struct {
				eng    *Engine
				se, sl *rdf.Graph
			}
			var views []published
			skipped := 0
			for round := 0; round < 4; round++ {
				if round > 0 {
					var items []rdf.Term
					for n := 0; n < 25; n++ {
						l := item("l", fmt.Sprint(rng.Intn(170)))
						switch rng.Intn(4) {
						case 0:
							setPN(sl, l, "")
						case 1:
							sl.Add(rdf.T(l, pn, rdf.NewLiteral(strings.Repeat("B", 1+rng.Intn(20)))))
						default: // a new length
							setPN(sl, l, strings.Repeat("A", 1+rng.Intn(20)))
						}
						items = append(items, l)
					}
					eng.ApplyPatches([]IndexPatch{{Side: LocalSide, Items: items}})
				}
				views = append(views, published{eng.Snapshot(), se.Snapshot(), sl.Snapshot()})
				for vi, v := range views {
					ref, err := New(cfg, v.se, v.sl)
					if err != nil {
						t.Fatal(err)
					}
					skipped += checkTopKIDs(t, fmt.Sprintf("round %d, view %d", round, vi), v.eng, ref)
				}
			}
			if eng.ix.band >= 0 && skipped == 0 {
				t.Error("the band walk skipped no candidate")
			}
		})
	}
}

// checkTopKIDs compares eng.TopKIDs with ref.TopK over all of eng's IDs
// and over every third of them, and returns the candidates skipped.
func checkTopKIDs(t *testing.T, at string, eng, ref *Engine) int {
	t.Helper()
	all := allIDs(eng)
	third := make(core.IDSet, len(all))
	for i := range third {
		third[i] = all[i] & 0x9249249249249249
	}
	skipped := 0
	for _, cands := range []core.IDSet{all, third} {
		locs := eng.ix.ids.Items(cands)
		for _, threshold := range []float64{0, 0.5, 0.8} {
			e, err := eng.WithOptions(threshold, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ref.WithOptions(threshold, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 3} {
				for i := 0; i < 12; i++ {
					ext := item("e", fmt.Sprint(i))
					got, work := e.TopKIDs(ext, cands, k)
					if want := r.TopK(ext, locs, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, threshold %g, k %d, %s: TopKIDs = %+v, rebuild's TopK = %+v", at, threshold, k, ext.Value, got, want)
					}
					if n := cands.Len(); work.Scored+work.Pruned+work.Skipped != n || threshold == 0 && k == 0 && len(got) != n {
						t.Fatalf("%s, threshold %g, k %d, %s: work %+v and %d matches over %d candidates", at, threshold, k, ext.Value, work, len(got), n)
					}
					skipped += work.Skipped
				}
			}
		}
	}
	return skipped
}

// allIDs returns every ID of eng's table.
func allIDs(eng *Engine) core.IDSet {
	n := eng.ix.ids.Len()
	set := make(core.IDSet, (n+63)/64)
	for id := 0; id < n; id++ {
		set[id>>6] |= 1 << (id & 63)
	}
	return set
}

// setPN replaces l's part numbers in g with v, or drops them when v is
// empty.
func setPN(g *rdf.Graph, l rdf.Term, v string) {
	for _, o := range g.Objects(l, pn) {
		g.Remove(rdf.T(l, pn, o))
	}
	if v != "" {
		g.Add(rdf.T(l, pn, rdf.NewLiteral(v)))
	}
}
