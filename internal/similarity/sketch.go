package similarity

// Sketch is a fixed-size summary of a string from which a
// SketchBounded measure bounds its score without reading the string:
// its rune length, and the count of its runes in each of 32 buckets
// (the rune's low five bits), saturating at 15, four bits per bucket.
// A caller that scores one string against many computes its sketch
// once. The zero Sketch is the empty string's.
type Sketch struct {
	// n is the rune length, counting each byte of invalid UTF-8 as one
	// rune, as []rune(s) does.
	n int
	// counts holds the bucket counts: buckets 0 to 15 in counts[0],
	// 16 to 31 in counts[1], bucket i of a word at bits 4i to 4i+3.
	counts [2]uint64
}

// Len returns the rune length of the sketched string.
func (k Sketch) Len() int { return k.n }

// NewSketch returns the sketch of s.
func NewSketch(s string) Sketch {
	var k Sketch
	for _, r := range s {
		k.n++
		b := uint(r) & 31
		w, shift := b>>4, (b&15)*4
		if k.counts[w]>>shift&15 != 15 {
			k.counts[w] += 1 << shift
		}
	}
	return k
}

// SketchBounded is implemented by measures whose score can be bounded
// from above by the sketches of the two inputs. Callers that scan many
// value pairs for the best (such as the linkage engine) use the bound to
// skip pairs that cannot beat it without running the full comparison.
// Implementations must never underestimate, in floating point too:
// Similarity(a, b) <= SimilarityUpperBound(NewSketch(a), NewSketch(b))
// for all a, b.
type SketchBounded interface {
	// SimilarityUpperBound returns an upper bound on Similarity for any
	// pair of inputs with the given sketches.
	SimilarityUpperBound(a, b Sketch) float64
}

// bagParts returns the positive parts of the bucket counts' difference,
// Σ max(A−B, 0) and Σ max(B−A, 0). Between the full rune multisets of
// the two strings these are the runes of a that b lacks and of b that a
// lacks; merging runes into buckets and saturating the counts only
// lowers them, so the exact values are at least these.
func bagParts(a, b *Sketch) (ab, ba int) {
	return posPart(a.counts[0], b.counts[0]) + posPart(a.counts[1], b.counts[1]),
		posPart(b.counts[0], a.counts[0]) + posPart(b.counts[1], a.counts[1])
}

// posPart returns Σ max(x_i − y_i, 0) over the 16 four-bit lanes of x
// and y. It widens the even and the odd lanes to bytes, so that each
// byte of (x|0x80) − y holds x_i − y_i + 128 with no borrow between
// bytes; bit 7 is then set exactly where x_i >= y_i, and the low seven
// bits hold the difference there.
func posPart(x, y uint64) int {
	const (
		nibbles = 0x0f0f0f0f0f0f0f0f
		high    = 0x8080808080808080
		ones    = 0x0101010101010101
	)
	even := (x&nibbles | high) - y&nibbles
	odd := (x>>4&nibbles | high) - y>>4&nibbles
	keepEven, keepOdd := even&high, odd&high
	keepEven -= keepEven >> 7 // 0x7f in every byte whose lane was not negative
	keepOdd -= keepOdd >> 7
	// Each byte of the sum is at most 30, so the eight add up in the top
	// byte without overflow.
	return int((even&keepEven + odd&keepOdd) * ones >> 56)
}

// EditDistanceBound returns the largest similarity 1 − d/max(la, lb)
// an edit distance d can give two strings with sketches a and b. An
// insertion, deletion or substitution changes each positive part of
// bagParts by at most one and a transposition changes neither, so the
// Levenshtein and the optimal-string-alignment distances are at least
// the larger part, and at least the length difference. Both divide as
// Similarity does, so the bound holds in floating point. It is the
// SketchBounded bound of Levenshtein and Damerau, for callers that
// call it directly.
func EditDistanceBound(a, b Sketch) float64 {
	den := maxInt(a.n, b.n)
	if den == 0 {
		return 1
	}
	ab, ba := bagParts(&a, &b)
	d := maxInt(absInt(a.n-b.n), maxInt(ab, ba))
	return 1 - float64(d)/float64(den)
}

// EditDistanceLengthBound is EditDistanceBound from the rune lengths
// alone: the same division, with the length difference as the
// distance. It is at least EditDistanceBound of any two sketches of
// those lengths, in floating point too, and falls as the lengths move
// apart, so a caller can rank and cut whole sets of strings by length.
func EditDistanceLengthBound(la, lb int) float64 {
	den := maxInt(la, lb)
	if den == 0 {
		return 1
	}
	return 1 - float64(absInt(la-lb))/float64(den)
}
