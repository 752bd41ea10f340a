package linkage

import (
	"slices"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

// value is one literal value of an item under one comparator: the
// lexical form, its sketch when the measure bounds its score by one,
// and the derived form the comparator's measure reads from that side of
// a pair, if it reads one.
type value struct {
	s        string
	sketch   similarity.Sketch
	tokens   []string
	tokenSet map[string]struct{}
	prepared similarity.Prepared
}

// compiledComparator is one configured comparator with its measure
// capabilities resolved, so scoring a pair is pure in-memory slice work:
// no graph access, no re-tokenizing.
type compiledComparator struct {
	weight  float64
	measure similarity.Measure
	extProp rdf.Term
	locProp rdf.Term
	// bounded is non-nil when the measure can bound its score from the
	// values' sketches; the engine then skips value pairs whose bound
	// cannot beat the current best, and candidates whose weighted bound
	// cannot reach a query's bar.
	bounded similarity.SketchBounded
	// tokens is non-nil when the measure scores pre-tokenized values.
	tokens similarity.Tokenized
	// tokenSets is non-nil when the measure scores prebuilt token sets;
	// preferred over tokens.
	tokenSets similarity.TokenSetScored
	// prepared is non-nil when the measure can precompile one side of a
	// comparison; the external value of a query is then prepared once
	// and scored against every candidate's string, the fastest path of
	// all.
	prepared similarity.PreparedMeasure
}

// compileComparators resolves every comparator's measure capabilities.
func compileComparators(cfg Config) []compiledComparator {
	comps := make([]compiledComparator, len(cfg.Comparators))
	for i, cmp := range cfg.Comparators {
		cc := compiledComparator{
			weight:  cmp.Weight,
			measure: cmp.Measure,
			extProp: cmp.ExternalProperty,
			locProp: cmp.LocalProperty,
		}
		cc.bounded, _ = cmp.Measure.(similarity.SketchBounded)
		cc.tokens, _ = cmp.Measure.(similarity.Tokenized)
		if cc.tokens != nil {
			// Token sets are derived from the token lists, so a measure
			// must be Tokenized for the set path to have data.
			cc.tokenSets, _ = cmp.Measure.(similarity.TokenSetScored)
		}
		cc.prepared, _ = cmp.Measure.(similarity.PreparedMeasure)
		comps[i] = cc
	}
	return comps
}

// bandedComparator returns the comparator whose column is split into
// length bands: the heaviest whose measure is an edit distance, the
// first of equal weight, or -1 when no measure is one.
func bandedComparator(cfg Config) int {
	band := -1
	for i, cmp := range cfg.Comparators {
		switch cmp.Measure.(type) {
		case similarity.Levenshtein, similarity.Damerau:
			if band < 0 || cmp.Weight > cfg.Comparators[band].Weight {
				band = i
			}
		}
	}
	return band
}

// derive returns s as a value of this comparator. An external value, the
// left-hand side of every pair, gets the form the measure scores from; a
// local value gets only what the measure reads from the right-hand side.
func (c *compiledComparator) derive(s string, local bool) value {
	v := value{s: s}
	if c.bounded != nil {
		v.sketch = similarity.NewSketch(s)
	}
	switch {
	case c.prepared != nil:
		if !local {
			v.prepared = c.prepared.Prepare(s)
		}
	case c.tokenSets != nil:
		toks := similarity.Tokenize(s)
		v.tokenSet = make(map[string]struct{}, len(toks))
		for _, tok := range toks {
			v.tokenSet[tok] = struct{}{}
		}
	case c.tokens != nil:
		v.tokens = similarity.Tokenize(s)
	}
	return v
}

// similarity scores one value pair: ev external, lv local.
func (c *compiledComparator) similarity(ev, lv *value) float64 {
	switch {
	case c.prepared != nil:
		return ev.prepared.Similarity(lv.s)
	case c.tokenSets != nil:
		return c.tokenSets.SimilarityTokenSets(ev.tokenSet, lv.tokenSet)
	case c.tokens != nil:
		return c.tokens.SimilarityTokens(ev.tokens, lv.tokens)
	default:
		return c.measure.Similarity(ev.s, lv.s)
	}
}

// best returns the best score over every value pair: for a multi-valued
// property the best-scoring pair counts. A pair whose bound cannot beat
// the current best is settled without running the measure.
func (c *compiledComparator) best(evs, lvs []value) float64 {
	best := 0.0
	for i := range evs {
		ev := &evs[i]
		for j := range lvs {
			lv := &lvs[j]
			if c.bounded != nil && c.bounded.SimilarityUpperBound(ev.sketch, lv.sketch) <= best {
				continue
			}
			if s := c.similarity(ev, lv); s > best {
				best = s
			}
		}
	}
	return best
}

// bound returns an upper bound on best(evs, lvs): the largest sketch
// bound over the value pairs, or 1 when the measure has none.
func (c *compiledComparator) bound(evs, lvs []value) float64 {
	if c.bounded == nil {
		return 1
	}
	b := 0.0
	for i := range evs {
		for j := range lvs {
			b = max(b, c.bounded.SimilarityUpperBound(evs[i].sketch, lvs[j].sketch))
		}
	}
	return b
}

// mutToken is an ownership marker compared by pointer identity, as in
// rdf.Graph: a page may be written in place only while it is owned by
// the writer's current token. It must not be zero-sized, or distinct
// tokens could share an address.
type mutToken struct{ _ byte }

// A column splits into pages of pageSize consecutive IDs, so that the
// one copy a write pays after a snapshot covers 128 items: about 6 KB
// on the banded column, values and sketches. pageSize must be a power
// of two of at least 64, so that a word of an ID set lies in one page.
const (
	pageBits = 7
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// noID addresses no column entry: the ID of an item the table does not
// know.
const noID = ^uint32(0)

// page holds the local values of pageSize consecutive IDs under one
// comparator, owned by the token that may write it. On the banded
// comparator's column it also holds the sketch column: per ID the
// sketch of its value when it has exactly one, so that the band walk
// reads a candidate's bound from one flat array.
type page struct {
	owner  *mutToken
	vals   [pageSize][]value
	sketch []similarity.Sketch // len pageSize on the banded column, else nil
}

// column is one comparator's local values, indexed by catalog ID: an
// item's values are at vals[id], nil when it has none. It is
// copy-on-write in fixed pages: a snapshot copies the column header, and
// the writer copies the page slice and then a page before its first
// write to them, so nothing a snapshot reads is ever written again.
type column struct {
	owner *mutToken // owns the pages slice itself
	pages []*page
	// sketched is set on the banded comparator's column, whose pages
	// hold a sketch column.
	sketched bool
}

// newPage returns an empty page owned by tok.
func (c *column) newPage(tok *mutToken) *page {
	pg := &page{owner: tok}
	if c.sketched {
		pg.sketch = make([]similarity.Sketch, pageSize)
	}
	return pg
}

// get returns the values of id.
func (c *column) get(id uint32) []value {
	if p := int(id >> pageBits); p < len(c.pages) {
		return c.pages[p].vals[id&pageMask]
	}
	return nil
}

// set installs id's values (nil drops them), copying the page slice and
// the page first unless tok owns them.
func (c *column) set(tok *mutToken, id uint32, vals []value) {
	if c.owner != tok {
		c.pages, c.owner = slices.Clone(c.pages), tok
	}
	p := int(id >> pageBits)
	for len(c.pages) <= p {
		c.pages = append(c.pages, c.newPage(tok))
	}
	pg := c.pages[p]
	if pg.owner != tok {
		cp := *pg
		cp.owner = tok
		cp.sketch = slices.Clone(pg.sketch)
		pg = &cp
		c.pages[p] = pg
	}
	pg.vals[id&pageMask] = vals
	pg.setSketch(id, vals)
}

// setSketch records id's sketch in the page's sketch column, if it has
// one: the sketch of its value when it has exactly one, else zero.
func (pg *page) setSketch(id uint32, vals []value) {
	if pg.sketch == nil {
		return
	}
	var k similarity.Sketch
	if len(vals) == 1 {
		k = vals[0].sketch
	}
	pg.sketch[id&pageMask] = k
}

// build indexes every comparator's local values into its column,
// walking the ID table in ID order and reading each item's literals by
// subject, so columns fill sequentially, and files the banded
// comparator's items into its length bands. A numbered engine first
// gives an ID to every local item that has a value and none yet, in
// rdf.Term order, so that the IDs do not depend on map iteration;
// otherwise only the items the table knows are indexed.
func (ix *index) build(sl *rdf.Graph) {
	var objs []rdf.Term // reused for every item's values
	if sl != nil && ix.numbered {
		for _, item := range sl.AllSubjects() {
			if _, ok := ix.ids.ID(item); ok {
				continue
			}
			for ci := range ix.comps {
				if objs = literals(objs[:0], sl, item, ix.comps[ci].locProp); len(objs) > 0 {
					ix.ids.Assign(item)
					break
				}
			}
		}
	}
	n := uint32(ix.ids.Len())
	npages := (n + pageSize - 1) / pageSize
	ix.cols = make([]column, len(ix.comps))
	for ci := range ix.comps {
		c := &ix.comps[ci]
		col := column{owner: ix.mut, pages: make([]*page, npages), sketched: ci == ix.band}
		for p := range col.pages {
			col.pages[p] = col.newPage(ix.mut)
		}
		total := 0
		for id := uint32(0); id < n; id++ {
			objs = literals(objs[:0], sl, ix.ids.Item(id), c.locProp)
			total += len(objs)
		}
		flat := make([]value, total) // one allocation for the whole column
		for id := uint32(0); id < n; id++ {
			objs = literals(objs[:0], sl, ix.ids.Item(id), c.locProp)
			if len(objs) == 0 {
				continue
			}
			vals := flat[:len(objs):len(objs)]
			flat = flat[len(objs):]
			for j, o := range objs {
				vals[j] = c.derive(o.Value, true)
			}
			pg := col.pages[id>>pageBits]
			pg.vals[id&pageMask] = vals
			pg.setSketch(id, vals)
			if ci == ix.band {
				ix.bands.put(ix.mut, id, vals, true)
			}
		}
		ix.cols[ci] = col
	}
}

// localValues derives item's values under comparator ci from the
// writer's local graph; nil when it has none.
func (ix *index) localValues(ci int, item rdf.Term) []value {
	c := &ix.comps[ci]
	objs := literals(nil, ix.sl, item, c.locProp)
	if len(objs) == 0 {
		return nil
	}
	vals := make([]value, len(objs))
	for i, o := range objs {
		vals[i] = c.derive(o.Value, true)
	}
	return vals
}

// resolve derives an external item's values per comparator from the
// index's external graph. They are built per call and shared with
// nothing, so readers of a snapshot write nothing they share.
func (ix *index) resolve(ext rdf.Term) [][]value {
	q := make([][]value, len(ix.comps))
	for ci := range ix.comps {
		c := &ix.comps[ci]
		objs := literals(nil, ix.se, ext, c.extProp)
		if len(objs) == 0 {
			continue
		}
		vals := make([]value, len(objs))
		for i, o := range objs {
			vals[i] = c.derive(o.Value, false)
		}
		q[ci] = vals
	}
	return q
}

// idOf maps a local item to its ID, or noID when the table does not
// know it: such an item has no values.
func (ix *index) idOf(item rdf.Term) uint32 {
	if id, ok := ix.ids.ID(item); ok {
		return id
	}
	return noID
}

// literals appends item's literal values under prop in g to dst,
// ordered by rdf.Term.Compare.
func literals(dst []rdf.Term, g *rdf.Graph, item, prop rdf.Term) []rdf.Term {
	if g == nil {
		return dst
	}
	n := len(dst)
	g.Match(item, prop, rdf.Term{}, func(t rdf.Triple) bool {
		if t.O.IsLiteral() {
			dst = append(dst, t.O)
		}
		return true
	})
	slices.SortFunc(dst[n:], rdf.Term.Compare)
	return dst
}
