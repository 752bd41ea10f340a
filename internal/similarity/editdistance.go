package similarity

import (
	"sync"
	"unicode/utf8"
)

// rowPool recycles the dynamic-programming scratch rows of the edit
// distances so the hot pairwise-comparison loop of the linkage engine
// allocates nothing per call.
var rowPool = sync.Pool{
	New: func() any {
		s := make([]int, 0, 64)
		return &s
	},
}

// getRow returns a pooled []int of length n.
func getRow(n int) *[]int {
	p := rowPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putRow(p *[]int) { rowPool.Put(p) }

// isASCII reports whether s contains only single-byte runes, in which
// case the distances can index bytes directly and skip the []rune
// conversion.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// LevenshteinDistance returns the minimum number of single-rune
// insertions, deletions and substitutions transforming a into b.
func LevenshteinDistance(a, b string) int {
	if isASCII(a) && isASCII(b) {
		return levASCII(a, b)
	}
	return levRunes([]rune(a), []rune(b))
}

// levASCII computes the distance between two pure-ASCII strings: Myers'
// bit-parallel kernel when either side fits in one machine word (the
// shorter side becomes the pattern — the distance is symmetric), the
// single-row DP otherwise.
func levASCII(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	if len(a) <= 64 {
		return myersLev(a, b)
	}
	return levASCIIDP(a, b)
}

// levASCIIDP is the single-row DP over raw bytes, the fallback for
// patterns longer than one machine word.
func levASCIIDP(a, b string) int {
	rp := getRow(len(b) + 1)
	defer putRow(rp)
	row := *rp
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0]
		row[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			row[j] = minInt(minInt(row[j]+1, row[j-1]+1), prev+cost)
			prev = cur
		}
	}
	return row[len(b)]
}

// levRunes is the single-row DP over pre-converted runes; prev is
// D[i-1][j-1] before overwrite.
func levRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	rp := getRow(len(rb) + 1)
	defer putRow(rp)
	row := *rp
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		prev := row[0]
		row[0] = i
		ca := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			cur := row[j]
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			row[j] = minInt(minInt(row[j]+1, row[j-1]+1), prev+cost)
			prev = cur
		}
	}
	return row[len(rb)]
}

// Levenshtein is the edit-distance similarity 1 - d/max(|a|,|b|).
type Levenshtein struct{}

// Similarity implements Measure.
func (Levenshtein) Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	if isASCII(a) && isASCII(b) {
		// a != b rules out the both-empty case, so the denominator is
		// positive.
		return 1 - float64(levASCII(a, b))/float64(maxInt(len(a), len(b)))
	}
	ra, rb := []rune(a), []rune(b)
	return 1 - float64(levRunes(ra, rb))/float64(maxInt(len(ra), len(rb)))
}

// SimilarityUpperBound implements LengthBounded: the distance is at least
// |la-lb|, so the similarity is at most 1 - |la-lb|/max(la,lb).
func (Levenshtein) SimilarityUpperBound(la, lb int) float64 {
	den := maxInt(la, lb)
	if den == 0 {
		return 1
	}
	return 1 - float64(absInt(la-lb))/float64(den)
}

// Name implements Measure.
func (Levenshtein) Name() string { return "levenshtein" }

// DamerauDistance returns the optimal-string-alignment distance: like
// Levenshtein but also counting the transposition of two adjacent runes
// as one operation.
func DamerauDistance(a, b string) int {
	if isASCII(a) && isASCII(b) {
		return damASCII(a, b)
	}
	return damRunes([]rune(a), []rune(b))
}

// damASCII computes the optimal-string-alignment distance between two
// pure-ASCII strings, dispatching like levASCII (OSA is symmetric, so
// the shorter side can always be the bit-parallel pattern).
func damASCII(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	if len(a) <= 64 {
		return myersDam(a, b)
	}
	return damASCIIDP(a, b)
}

// damASCIIDP is the three-row OSA DP over raw bytes, the fallback for
// patterns longer than one machine word.
func damASCIIDP(a, b string) int {
	la, lb := len(a), len(b)
	p2, p1, cp := getRow(lb+1), getRow(lb+1), getRow(lb+1)
	defer putRow(p2)
	defer putRow(p1)
	defer putRow(cp)
	prev2, prev1, cur := *p2, *p1, *cp
	for j := 0; j <= lb; j++ {
		prev1[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(minInt(prev1[j]+1, cur[j-1]+1), prev1[j-1]+cost)
			if i > 1 && j > 1 && ca == b[j-2] && a[i-2] == b[j-1] {
				cur[j] = minInt(cur[j], prev2[j-2]+1)
			}
		}
		prev2, prev1, cur = prev1, cur, prev2
	}
	return prev1[lb]
}

// damRunes is the three-row OSA DP over pre-converted runes.
func damRunes(ra, rb []rune) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	p2, p1, cp := getRow(lb+1), getRow(lb+1), getRow(lb+1)
	defer putRow(p2)
	defer putRow(p1)
	defer putRow(cp)
	prev2, prev1, cur := *p2, *p1, *cp
	for j := 0; j <= lb; j++ {
		prev1[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ca := ra[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(minInt(prev1[j]+1, cur[j-1]+1), prev1[j-1]+cost)
			if i > 1 && j > 1 && ca == rb[j-2] && ra[i-2] == rb[j-1] {
				cur[j] = minInt(cur[j], prev2[j-2]+1)
			}
		}
		prev2, prev1, cur = prev1, cur, prev2
	}
	return prev1[lb]
}

// ReferenceLevenshteinDistance runs the plain rune-path DP regardless of
// input shape. It is the oracle the bit-parallel kernels are fuzzed
// against and the baseline BenchmarkReferenceLevenshtein measures
// kernel speedups against; production callers should use
// LevenshteinDistance.
func ReferenceLevenshteinDistance(a, b string) int {
	return levRunes([]rune(a), []rune(b))
}

// ReferenceDamerauDistance is ReferenceLevenshteinDistance for the
// optimal-string-alignment distance.
func ReferenceDamerauDistance(a, b string) int {
	return damRunes([]rune(a), []rune(b))
}

// Damerau is the transposition-aware edit similarity.
type Damerau struct{}

// Similarity implements Measure.
func (Damerau) Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	if isASCII(a) && isASCII(b) {
		return 1 - float64(damASCII(a, b))/float64(maxInt(len(a), len(b)))
	}
	ra, rb := []rune(a), []rune(b)
	return 1 - float64(damRunes(ra, rb))/float64(maxInt(len(ra), len(rb)))
}

// SimilarityUpperBound implements LengthBounded: the OSA distance is at
// least |la-lb|, so the similarity is at most 1 - |la-lb|/max(la,lb).
func (Damerau) SimilarityUpperBound(la, lb int) float64 {
	den := maxInt(la, lb)
	if den == 0 {
		return 1
	}
	return 1 - float64(absInt(la-lb))/float64(den)
}

// Name implements Measure.
func (Damerau) Name() string { return "damerau" }
