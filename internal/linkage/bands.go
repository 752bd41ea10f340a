package linkage

import (
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/similarity"
)

// Length bands: the ID index TopKIDs walks instead of the bare ID order.
// An edit-distance similarity can never exceed
// similarity.EditDistanceLengthBound of the two values' rune lengths,
// so the catalog's IDs are kept, for the banded comparator, in one set
// per rune length of their value. A query visits the sets nearest its
// own length first; once the first sets have raised the bar, a whole
// set whose length bound is below it is skipped without one bound per
// candidate. This is lossless blocking in the one dimension the
// edit-distance bound gives.

// An idBits page covers bitsPageIDs consecutive IDs, so that the copy a
// write pays after a snapshot is 512 bytes, not a whole 3.75 KB set.
const (
	bitsPageBits  = 12
	bitsPageIDs   = 1 << bitsPageBits
	bitsPageWords = bitsPageIDs / 64
)

// bitsPage holds the bits of bitsPageIDs consecutive IDs, owned by the
// token that may write it.
type bitsPage struct {
	owner *mutToken
	w     [bitsPageWords]uint64
}

// idBits is a set of IDs, copy-on-write in pages like a column: the
// writer copies the set's header and page slice, and then a page,
// before its first write to them.
type idBits struct {
	owner *mutToken   // owns pages and n
	pages []*bitsPage // nil where no ID of the page's range is in the set
	n     int         // IDs in the set
}

// own returns b when tok owns it, else a copy owned by tok.
func (b *idBits) own(tok *mutToken) *idBits {
	if b.owner == tok {
		return b
	}
	return &idBits{owner: tok, pages: slices.Clone(b.pages), n: b.n}
}

// put adds id to b or removes it, copying its page first unless tok
// owns it. tok must own b.
func (b *idBits) put(tok *mutToken, id uint32, in bool) {
	p := int(id >> bitsPageBits)
	for len(b.pages) <= p {
		b.pages = append(b.pages, nil)
	}
	pg := b.pages[p]
	switch {
	case pg == nil:
		pg = &bitsPage{owner: tok}
		b.pages[p] = pg
	case pg.owner != tok:
		cp := *pg
		cp.owner = tok
		pg = &cp
		b.pages[p] = pg
	}
	w, bit := &pg.w[id>>6&(bitsPageWords-1)], uint64(1)<<(id&63)
	if (*w&bit != 0) == in {
		return
	}
	*w ^= bit
	if in {
		b.n++
	} else {
		b.n--
	}
}

// each calls fn for every word of b ANDed with cands that is not zero,
// with the index of that word, in ID order.
func (b *idBits) each(cands core.IDSet, fn func(wi int, w uint64)) {
	for p, pg := range b.pages {
		base := p * bitsPageWords
		if base >= len(cands) {
			return
		}
		if pg == nil {
			continue
		}
		for j, cw := range cands[base:min(base+bitsPageWords, len(cands))] {
			if w := pg.w[j] & cw; w != 0 {
				fn(base+j, w)
			}
		}
	}
}

// lengthBand is the set of IDs whose one value under the banded
// comparator has rune length n.
type lengthBand struct {
	n   int
	ids *idBits
}

// byLength orders length bands by rune length, for binary search.
func byLength(b lengthBand, n int) int { return b.n - n }

// lengthBands indexes the banded comparator's column by value length:
// an item with one value is in the band of that value's rune length, an
// item with several is in multi, and an item with none is in no set.
type lengthBands struct {
	owner *mutToken    // owns the bands slice
	bands []lengthBand // by ascending n, none empty
	multi idBits
}

// move re-files id from the set its old values put it in to the set of
// its new ones. Every set it writes is copied first unless tok owns it.
func (lb *lengthBands) move(tok *mutToken, id uint32, from, to []value) {
	if len(from) == len(to) && (len(from) != 1 || from[0].sketch.Len() == to[0].sketch.Len()) {
		return // the same set
	}
	lb.put(tok, id, from, false)
	lb.put(tok, id, to, true)
}

// put adds id to, or removes it from, the set that vals put it in.
func (lb *lengthBands) put(tok *mutToken, id uint32, vals []value, in bool) {
	if len(vals) == 0 {
		return
	}
	if len(vals) > 1 {
		lb.multi = *lb.multi.own(tok)
		lb.multi.put(tok, id, in)
		return
	}
	if lb.owner != tok {
		lb.bands, lb.owner = slices.Clone(lb.bands), tok
	}
	n := vals[0].sketch.Len()
	i, found := slices.BinarySearchFunc(lb.bands, n, byLength)
	switch {
	case found:
		lb.bands[i].ids = lb.bands[i].ids.own(tok)
	case in:
		lb.bands = slices.Insert(lb.bands, i, lengthBand{n: n, ids: &idBits{owner: tok}})
	default:
		return
	}
	lb.bands[i].ids.put(tok, id, in)
	if lb.bands[i].ids.n == 0 {
		lb.bands = slices.Delete(lb.bands, i, i+1)
	}
}

// walkBands is TopKIDs's walk for a query with one value under the
// banded comparator. It offers the candidates with several values
// first, under the per-value bound of scoreAbove. It then visits the
// length bands in order of their bound, nearest the query's length
// first, ANDs each with the candidates word by word, and stops at the
// first band whose bound is strictly below the bar: the bar only rises,
// and every band after it has a bound no higher. Inside a band the
// candidates' sketches are copied from the sketch column in batches and
// each candidate's bound is computed from its copy. The candidates with
// no value under the banded comparator come last, when their bound
// still reaches the bar. The candidates never offered are counted as
// skipped.
func (r *ranker) walkBands(cands core.IDSet) {
	ix := r.ix
	col := &ix.cols[ix.band]
	ix.bands.multi.each(cands, func(wi int, w uint64) {
		for ; w != 0; w &= w - 1 {
			r.offer(uint32(wi<<6|bits.TrailingZeros64(w)), nil, nil)
		}
	})
	var batch [32]bandCandidate
	qn := r.q[ix.band][0].sketch.Len()
	bands := ix.bands.bands
	hi, _ := slices.BinarySearchFunc(bands, qn, byLength)
	lo := hi - 1
	for lo >= 0 || hi < len(bands) {
		var b *lengthBand
		if hi == len(bands) || lo >= 0 &&
			similarity.EditDistanceLengthBound(qn, bands[lo].n) > similarity.EditDistanceLengthBound(qn, bands[hi].n) {
			b, lo = &bands[lo], lo-1
		} else {
			b, hi = &bands[hi], hi+1
		}
		if r.bandBound(similarity.EditDistanceLengthBound(qn, b.n)) < r.bar {
			break
		}
		// Copy a batch of candidates' sketches before bounding them: the
		// loads do not depend on each other, so their cache misses
		// overlap, where one candidate at a time waits for each.
		n := 0
		b.ids.each(cands, func(wi int, w uint64) {
			sk := col.pages[wi>>(pageBits-6)].sketch
			for ; w != 0; w &= w - 1 {
				id := uint32(wi<<6 | bits.TrailingZeros64(w))
				batch[n].id, batch[n].sketch = id, sk[id&pageMask]
				if n++; n == len(batch) {
					r.offerBatch(batch[:n])
					n = 0
				}
			}
		})
		r.offerBatch(batch[:n])
	}
	// An item with no value under the banded comparator bounds it at 0,
	// below every band, so it is reached only when no band stopped the
	// walk.
	if r.bandBound(0) >= r.bar {
		for wi, w := range cands {
			for ; w != 0; w &= w - 1 {
				if id := uint32(wi<<6 | bits.TrailingZeros64(w)); len(col.get(id)) == 0 {
					r.offer(id, nil, nil)
				}
			}
		}
	}
	r.work.Skipped = cands.Len() - r.work.Scored - r.work.Pruned
}

// bandCandidate is a candidate of a length band with its sketch under
// the banded comparator, copied from the sketch column.
type bandCandidate struct {
	id     uint32
	sketch similarity.Sketch
}

// offerBatch offers each candidate of cs with its sketch.
func (r *ranker) offerBatch(cs []bandCandidate) {
	for i := range cs {
		r.offer(cs[i].id, nil, &cs[i].sketch)
	}
}

// bandBound bounds the score of every candidate whose banded
// comparator's bound is at most x: scoreAbove's weighted sum, in its
// order, with every other comparator at 1 where the query has a value
// and at 0 where it has none, as in scoreAbove.
func (r *ranker) bandBound(x float64) float64 {
	ix := r.ix
	b := 0.0
	for i := range ix.comps {
		switch {
		case i == ix.band:
			b += ix.comps[i].weight * x
		case len(r.q[i]) > 0:
			b += ix.comps[i].weight
		}
	}
	return b / ix.totalWeight
}
