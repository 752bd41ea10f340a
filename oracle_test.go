package datalink

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/similarity"
)

// The reference oracle: a deliberately naive implementation of the
// serving path that QueryView.LinkTopK must answer identically. It
// shares no code with the optimized path beyond the learned model and
// the frozen graphs of the view it checks:
//
//   - classification fires every rule whose segment occurs in the
//     item's split values, by a linear scan over the rule list;
//   - class membership is found by brute force over the raw local
//     graph's rdf:type triples and the ontology's descendants;
//   - scores come from similarity.ReferenceLevenshteinDistance and a
//     hand-written token Jaccard, best value pair per comparator;
//   - the passing matches are fully sorted, then cut to k.

// oracleComparator is one comparator of the oracle's weighted score.
type oracleComparator struct {
	prop   Term
	weight float64
	sim    func(a, b string) float64
}

// refLevenshtein is normalized edit similarity from the O(nm) reference
// distance.
func refLevenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	n := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	return 1 - float64(similarity.ReferenceLevenshteinDistance(a, b))/float64(n)
}

// refJaccard is token-set Jaccard over lower-cased letter/digit runs.
func refJaccard(a, b string) float64 {
	toks := func(s string) map[string]bool {
		set := map[string]bool{}
		for _, t := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		}) {
			set[t] = true
		}
		return set
	}
	sa, sb := toks(a), toks(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	if union := len(sa) + len(sb) - inter; union > 0 {
		return float64(inter) / float64(union)
	}
	return 0
}

// literalValues returns item's literal values under prop in g.
func literalValues(g *Graph, item, prop Term) []string {
	var out []string
	for _, o := range g.Objects(item, prop) {
		if o.IsLiteral() {
			out = append(out, o.Value)
		}
	}
	return out
}

// oracleScores scores one item the naive way against every candidate of
// its reduced space in view v, in no particular order.
func oracleScores(v *QueryView, ol *Ontology, comps []oracleComparator, item Term) []Match {
	m := v.Model()
	sp := m.Config.Splitter
	if sp == nil {
		sp = NewSeparatorSplitter(SplitterOptions{})
	}
	predicted := map[Term]bool{}
	for _, r := range m.Rules.Rules {
		for _, val := range literalValues(v.External(), item, r.Property) {
			for _, seg := range sp.Split(val) {
				if seg == r.Segment {
					predicted[r.Class] = true
				}
			}
		}
	}
	inClass := func(loc Term) bool {
		for _, t := range v.Local().Objects(loc, RDFType) {
			if t == OWLClass {
				continue
			}
			for c := range predicted {
				if t == c {
					return true
				}
				for _, d := range ol.Descendants(c) {
					if t == d {
						return true
					}
				}
			}
		}
		return false
	}
	total := 0.0
	for _, c := range comps {
		total += c.weight
	}
	var out []Match
	for _, loc := range v.Local().AllSubjects() {
		if !inClass(loc) {
			continue
		}
		num := 0.0
		for _, c := range comps {
			best := 0.0
			for _, a := range literalValues(v.External(), item, c.prop) {
				for _, b := range literalValues(v.Local(), loc, c.prop) {
					best = max(best, c.sim(a, b))
				}
			}
			num += c.weight * best
		}
		out = append(out, Match{External: item, Local: loc, Score: num / total})
	}
	return out
}

// oracleSelect keeps the scores at or above threshold, fully sorted and
// cut to k (k <= 0: all).
func oracleSelect(scores []Match, threshold float64, k int) []Match {
	var out []Match
	for _, m := range scores {
		if m.Score >= threshold {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Local.Compare(out[j].Local) < 0
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// oracleFixture is a seeded random corpus with class-revealing part
// number prefixes, a few multi-valued and missing values, ties, untyped
// catalog items and items that fire no rule.
type oracleFixture struct {
	rng         *rand.Rand
	ol          *Ontology
	classes     []Term
	prefixes    []string
	pn, label   Term
	se, sl      *Graph
	nLoc        int
	removed     []Term
	externalIDs []Term
	links       []Link
}

// oracleLearner is the learner configuration of every oracle fixture
// model.
var oracleLearner = LearnerConfig{SupportThreshold: 0.01}

func newOracleFixture(t *testing.T, seed int64) *oracleFixture {
	t.Helper()
	f := &oracleFixture{
		rng:      rand.New(rand.NewSource(seed)),
		pn:       NewIRI("http://ex.org/pn"),
		label:    NewIRI("http://ex.org/label"),
		se:       NewGraph(),
		sl:       NewGraph(),
		prefixes: []string{"PRT", "RES", "SMD", "THT", "CAP"},
	}
	og := NewGraph()
	for _, n := range []string{"Part", "Resistor", "SMD", "THT", "Capacitor"} {
		c := NewIRI("http://ex.org/onto#" + n)
		f.classes = append(f.classes, c)
		og.Add(T(c, RDFType, OWLClass))
	}
	og.Add(T(f.classes[1], RDFSSubClassOf, f.classes[0]))
	og.Add(T(f.classes[2], RDFSSubClassOf, f.classes[1]))
	og.Add(T(f.classes[3], RDFSSubClassOf, f.classes[1]))
	og.Add(T(f.classes[4], RDFSSubClassOf, f.classes[0]))
	var err error
	if f.ol, err = OntologyFromGraph(og); err != nil {
		t.Fatal(err)
	}
	return f
}

// value draws a short part number under class prefix p: a small
// alphabet with two multi-byte runes, so equal and near-equal values
// (score ties) are common and the rune path runs. One value in ten
// starts with one rune repeated 16 to 75 times, past the count a sketch
// bucket saturates at and often past 64 runes, where the edit distances
// leave the bit-parallel kernels; such values score high against each
// other, so a high threshold prunes among them by their lengths.
func (f *oracleFixture) value(p string) string {
	const alphabet = "0123AB-µΩ"
	runes := []rune(alphabet)
	var b strings.Builder
	b.WriteString(p)
	b.WriteByte('-')
	if f.rng.Intn(10) == 0 {
		r := runes[f.rng.Intn(len(runes))]
		for i := 16 + f.rng.Intn(60); i > 0; i-- {
			b.WriteRune(r)
		}
	}
	for i := 1 + f.rng.Intn(4); i > 0; i-- {
		b.WriteRune(runes[f.rng.Intn(len(runes))])
	}
	return b.String()
}

func (f *oracleFixture) words() string {
	vocab := []string{"chip", "film", "ohm", "farad", "axial", "smd"}
	return vocab[f.rng.Intn(len(vocab))] + " " + vocab[f.rng.Intn(len(vocab))]
}

// setLocal rewrites local item l with the given class (-1: untyped) and
// random values; some items get no values at all.
func (f *oracleFixture) setLocal(l Term, class int) {
	for _, tr := range f.sl.Find(l, Term{}, Term{}) {
		f.sl.Remove(tr)
	}
	p := "ZZZ"
	if class >= 0 {
		f.sl.Add(T(l, RDFType, f.classes[class]))
		p = f.prefixes[class]
		if f.rng.Intn(8) == 0 { // a second class
			f.sl.Add(T(l, RDFType, f.classes[f.rng.Intn(len(f.classes))]))
		}
	}
	if f.rng.Intn(10) == 0 {
		return // typed, but no values: scores 0 against everything
	}
	f.sl.Add(T(l, f.pn, NewLiteral(f.value(p))))
	if f.rng.Intn(3) == 0 {
		f.sl.Add(T(l, f.pn, NewLiteral(f.value(p))))
	}
	if f.rng.Intn(4) != 0 {
		f.sl.Add(T(l, f.label, NewLiteral(f.words())))
	}
}

func (f *oracleFixture) setExternal(e Term) {
	for _, tr := range f.se.Find(e, Term{}, Term{}) {
		f.se.Remove(tr)
	}
	p := "ZZZ" // fires no rule
	if f.rng.Intn(8) != 0 {
		p = f.prefixes[f.rng.Intn(len(f.prefixes))]
	}
	f.se.Add(T(e, f.pn, NewLiteral(f.value(p))))
	if f.rng.Intn(4) == 0 {
		f.se.Add(T(e, f.pn, NewLiteral(f.value(p))))
	}
	if f.rng.Intn(3) != 0 {
		f.se.Add(T(e, f.label, NewLiteral(f.words())))
	}
}

func (f *oracleFixture) local(i int) Term { return NewIRI(fmt.Sprintf("http://ex.org/l/%d", i)) }

// build fills both graphs and learns a pipeline from links between
// external items and local items of the class their prefix names.
func (f *oracleFixture) build(t *testing.T, nExt, nLoc int) *Pipeline {
	t.Helper()
	f.nLoc = nLoc
	for i := 0; i < nLoc; i++ {
		class := f.rng.Intn(len(f.classes))
		if i%25 == 7 {
			class = -1
		}
		f.setLocal(f.local(i), class)
	}
	for i := 0; i < nExt; i++ {
		if i >= nExt/2 {
			e := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
			f.externalIDs = append(f.externalIDs, e)
			f.setExternal(e)
			continue
		}
		f.addTrainingPair(i % len(f.classes))
	}
	p, err := NewPipeline(oracleLearner, TrainingSet{Links: f.links}, f.se, f.sl, f.ol)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model.Rules.Len() == 0 {
		t.Fatal("fixture learned no rules")
	}
	return p
}

// addTrainingPair adds a provider item and its local twin, which shares
// its class and values, to the graphs and a link between them to the
// training links, and returns the twin.
func (f *oracleFixture) addTrainingPair(class int) Term {
	i := len(f.externalIDs)
	e := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
	l := NewIRI(fmt.Sprintf("http://ex.org/twin/%d", i))
	f.externalIDs = append(f.externalIDs, e)
	f.se.Add(T(e, f.pn, NewLiteral(f.value(f.prefixes[class]))))
	f.sl.Add(T(l, RDFType, f.classes[class]))
	for _, o := range f.se.Objects(e, f.pn) {
		f.sl.Add(T(l, f.pn, o))
	}
	f.links = append(f.links, Link{External: e, Local: l})
	return l
}

// relearn drops about a quarter of the training links, adds three new
// training pairs, and learns a model from the resulting links.
func (f *oracleFixture) relearn(t *testing.T, p *Pipeline) *Model {
	t.Helper()
	var kept []Link
	for _, l := range f.links {
		if f.rng.Intn(4) != 0 {
			kept = append(kept, l)
		}
	}
	f.links = kept
	var twins []Term
	for n := 0; n < 3; n++ {
		twins = append(twins, f.addTrainingPair(f.rng.Intn(len(f.classes))))
	}
	p.ApplyPatches([]Patch{{Side: LocalSide, Items: twins}})
	m, err := Learn(oracleLearner, TrainingSet{Links: f.links}, f.se, f.sl, f.ol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mutate applies one random batch of catalog and provider changes to
// the graphs and reports it to the pipeline: value changes, new items,
// removals, re-adds of removed items (which get their old IDs back),
// class changes and untyped items, then external value changes.
func (f *oracleFixture) mutate(p *Pipeline) {
	// One patch per change, in the order the graph changed.
	var patches []Patch
	up := func(l Term) { patches = append(patches, Patch{Side: LocalSide, Items: []Term{l}}) }
	for n := 0; n < 12; n++ {
		switch op := f.rng.Intn(6); {
		case op == 0: // brand-new item: a new ID
			l := f.local(f.nLoc)
			f.nLoc++
			f.setLocal(l, f.rng.Intn(len(f.classes)))
			up(l)
		case op == 1: // removal: the ID stays, the item leaves every set
			l := f.local(f.rng.Intn(f.nLoc))
			for _, tr := range f.sl.Find(l, Term{}, Term{}) {
				f.sl.Remove(tr)
			}
			f.removed = append(f.removed, l)
			patches = append(patches, Patch{Side: LocalSide, Remove: true, Items: []Term{l}})
		case op == 2 && len(f.removed) > 0: // re-add a removed item
			l := f.removed[f.rng.Intn(len(f.removed))]
			f.setLocal(l, f.rng.Intn(len(f.classes)))
			up(l)
		case op == 3: // class change, values kept
			l := f.local(f.rng.Intn(f.nLoc))
			for _, tr := range f.sl.Find(l, RDFType, Term{}) {
				f.sl.Remove(tr)
			}
			f.sl.Add(T(l, RDFType, f.classes[f.rng.Intn(len(f.classes))]))
			up(l)
		case op == 4: // untyped item with values
			l := f.local(f.nLoc)
			f.nLoc++
			f.setLocal(l, -1)
			up(l)
		default: // value change under a random class
			l := f.local(f.rng.Intn(f.nLoc))
			f.setLocal(l, f.rng.Intn(len(f.classes)))
			up(l)
		}
	}
	for n := 0; n < 3; n++ {
		e := f.externalIDs[f.rng.Intn(len(f.externalIDs))]
		f.setExternal(e)
		patches = append(patches, Patch{Side: ExternalSide, Items: []Term{e}})
	}
	p.ApplyPatches(patches)
}

// publishedConfig is the fixture's linker configuration for the
// pipeline's own engine, with its oracle twin.
func (f *oracleFixture) publishedConfig() oracleConfig {
	return oracleConfig{
		cfg: LinkerConfig{Comparators: []Comparator{
			{ExternalProperty: f.pn, LocalProperty: f.pn, Measure: Levenshtein, Weight: 2},
			{ExternalProperty: f.label, LocalProperty: f.label, Measure: Jaccard, Weight: 1},
		}},
		comps: []oracleComparator{{f.pn, 2, refLevenshtein}, {f.label, 1, refJaccard}},
	}
}

// TestLinkTopKMatchesOracle drives seeded random corpora through rounds
// of catalog mutations and checks, for every external item, threshold
// in {0, 0.5, 0.8} and k in {0, 1, 3}, that QueryView.LinkTopK equals the
// naive oracle on the view's own frozen state and model — for the
// current view and for every earlier view, which the writer's later
// copy-on-write pages must leave untouched. Odd rounds also relearn
// with training links added and dropped, and install the model with
// SetModel, which keeps the instance index and the engine. Each view is
// also queried with comparators of its own, which builds a
// request-scoped engine.
func TestLinkTopKMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			f := newOracleFixture(t, seed)
			p := f.build(t, 30, 300)
			published := f.publishedConfig()
			scoped := oracleConfig{
				cfg: LinkerConfig{Comparators: []Comparator{
					{ExternalProperty: f.pn, LocalProperty: f.pn, Measure: Levenshtein, Weight: 1},
				}},
				comps: []oracleComparator{{f.pn, 1, refLevenshtein}},
			}
			if err := p.EnsureLinker(published.cfg); err != nil {
				t.Fatal(err)
			}
			var views []*QueryView
			for round := 0; round < 6; round++ {
				if round > 0 {
					f.mutate(p)
				}
				if round%2 == 1 {
					p.SetModel(f.relearn(t, p))
				}
				views = append(views, p.Snapshot())
				// Earlier views must still answer from their own state and
				// model after every later round's writes and learns.
				for i, v := range views {
					checkOracle(t, fmt.Sprintf("round %d, view %d", round, i), v, f, published)
				}
				checkOracle(t, fmt.Sprintf("round %d, request-scoped engine", round), views[round], f, scoped)
			}
		})
	}
}

// TestSetModelCompactsChurnedCatalog churns the catalog through rounds
// that add and remove distinct items, with a learn after each round.
// IDs are never reused, so without compaction the IDs naming no typed
// item would grow every round. After every learn the table must satisfy
// SetModel's bound, the indexes must be kept unless SetModel reports a
// rebuild, at least one learn must rebuild, and the kept pipeline must
// answer exactly like one built fresh on the same graphs and model.
func TestSetModelCompactsChurnedCatalog(t *testing.T) {
	f := newOracleFixture(t, 3)
	p := f.build(t, 30, 300)
	cfg := f.publishedConfig().cfg
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	next, rebuilds := 0, 0 // next is the oldest catalog item not yet removed
	for round := 0; round < 8; round++ {
		var patches []Patch
		for n := 0; n < 40; n++ {
			l := f.local(f.nLoc)
			f.nLoc++
			f.setLocal(l, f.rng.Intn(len(f.classes)))
			patches = append(patches, Patch{Side: LocalSide, Items: []Term{l}})
			l = f.local(next)
			next++
			for _, tr := range f.sl.Find(l, Term{}, Term{}) {
				f.sl.Remove(tr)
			}
			patches = append(patches, Patch{Side: LocalSide, Remove: true, Items: []Term{l}})
		}
		p.ApplyPatches(patches)
		m := f.relearn(t, p)
		kept := p.Instances
		rebuilt := p.SetModel(m)
		if rebuilt == (p.Instances == kept) {
			t.Fatalf("round %d: SetModel reported rebuilt=%v, but the instance index kept=%v", round, rebuilt, p.Instances == kept)
		}
		if rebuilt {
			rebuilds++
		}
		ids, typed := p.Instances.IDs().Len(), p.Instances.Total()
		if ids-typed > ids/4 {
			t.Fatalf("round %d: %d of %d IDs name no typed item, above a quarter", round, ids-typed, ids)
		}
		fresh := NewPipelineWithModel(m, f.se, f.sl, f.ol)
		if err := fresh.EnsureLinker(cfg); err != nil {
			t.Fatal(err)
		}
		v, want := p.Snapshot(), fresh.Snapshot()
		for _, threshold := range []float64{0, 0.5} {
			cfg.Threshold = threshold
			for _, k := range []int{0, 3} {
				got, err := v.LinkTopK(ctx, f.externalIDs, cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := want.LinkTopK(ctx, f.externalIDs, cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("round %d, threshold %g, k %d: the kept pipeline answers unlike a fresh one", round, threshold, k)
				}
			}
		}
	}
	if rebuilds == 0 {
		t.Fatal("no learn compacted the churned catalog")
	}
}

// TestSetModelKeepsIndexesWithUntypedItems adds 150 untyped catalog
// items with values to the oracle fixture. No class set names them, so
// the pipeline's engine gives them no ID: all IDs stay typed, and three
// learns in a row keep both indexes and answer like the oracle. When the
// engine numbered them, a learn here left 466 IDs, 306 of them typed, so
// every learn rebuilt both indexes.
func TestSetModelKeepsIndexesWithUntypedItems(t *testing.T) {
	f := newOracleFixture(t, 4)
	p := f.build(t, 30, 300)
	published := f.publishedConfig()
	if err := p.EnsureLinker(published.cfg); err != nil {
		t.Fatal(err)
	}
	var untyped []Term
	for n := 0; n < 150; n++ {
		l := f.local(f.nLoc)
		f.nLoc++
		f.sl.Add(T(l, f.pn, NewLiteral(f.value("ZZZ"))))
		untyped = append(untyped, l)
	}
	p.ApplyPatches([]Patch{{Side: LocalSide, Items: untyped}})
	for learn := 0; learn < 3; learn++ {
		if p.SetModel(f.relearn(t, p)) {
			t.Fatalf("learn %d rebuilt the indexes: %d IDs, %d typed", learn, p.Instances.IDs().Len(), p.Instances.Total())
		}
		if ids, typed := p.Instances.IDs().Len(), p.Instances.Total(); ids != typed {
			t.Fatalf("learn %d: %d IDs, %d typed", learn, ids, typed)
		}
		checkOracle(t, fmt.Sprintf("learn %d", learn), p.Snapshot(), f, published)
	}
}

// oracleConfig is a linker configuration with its oracle twin.
type oracleConfig struct {
	cfg   LinkerConfig
	comps []oracleComparator
}

func checkOracle(t *testing.T, step string, v *QueryView, f *oracleFixture, oc oracleConfig) {
	t.Helper()
	ctx := context.Background()
	cfg := oc.cfg
	scores := map[Term][]Match{}
	for _, item := range f.externalIDs {
		scores[item] = oracleScores(v, f.ol, oc.comps, item)
	}
	for _, threshold := range []float64{0, 0.5, 0.8} {
		cfg.Threshold = threshold
		for _, k := range []int{0, 1, 3} {
			got, err := v.LinkTopK(ctx, f.externalIDs, cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, item := range f.externalIDs {
				want := oracleSelect(scores[item], threshold, k)
				if !reflect.DeepEqual(got[item], want) {
					t.Fatalf("%s, %d comparators, threshold %g, k %d, %s:\n got %+v\nwant %+v",
						step, len(cfg.Comparators), threshold, k, item.Value, got[item], want)
				}
			}
		}
	}
}
