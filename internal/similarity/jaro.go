package similarity

// Jaro is the Jaro similarity, designed for short strings such as names
// and identifiers (Jaro 1989, used in census record linkage).
type Jaro struct{}

// Similarity implements Measure.
func (Jaro) Similarity(a, b string) float64 { return jaro([]rune(a), []rune(b)) }

// Name implements Measure.
func (Jaro) Name() string { return "jaro" }

// SimilarityUpperBound implements SketchBounded (jaroBound).
func (Jaro) SimilarityUpperBound(a, b Sketch) float64 {
	bound, _ := jaroBound(a, b)
	return bound
}

// jaroBound returns an upper bound on the Jaro similarity of strings
// with sketches a and b, and the bound on their matches it rests on. A
// rune is matched at most once, so the matches m are at most the runes
// the two strings share: la − Σ max(A−B, 0) over the exact rune counts,
// which bagParts' bucketed, saturated parts can only raise, and the
// same from b's side. With no transpositions the similarity is at most
// (m/la + m/lb + 1)/3, summed in jaro's order so that the bound holds
// in floating point.
func jaroBound(a, b Sketch) (float64, int) {
	if a.n == 0 && b.n == 0 {
		return 1, 0
	}
	if a.n == 0 || b.n == 0 {
		return 0, 0
	}
	ab, ba := bagParts(&a, &b)
	m := minInt(a.n-ab, b.n-ba)
	if m == 0 {
		return 0, 0
	}
	mf := float64(m)
	return (mf/float64(a.n) + mf/float64(b.n) + 1) / 3, m
}

func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-window)
		hi := minInt(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions between the matched subsequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix,
// the standard tuning for identifiers (Winkler 1990).
type JaroWinkler struct {
	// PrefixScale is the boost per shared prefix rune; 0 means the
	// conventional 0.1. Values above 0.25 are clamped to 0.25 so the
	// result stays within [0, 1].
	PrefixScale float64
	// MaxPrefix is the longest prefix considered; 0 means the
	// conventional 4.
	MaxPrefix int
}

// Similarity implements Measure.
func (jw JaroWinkler) Similarity(a, b string) float64 {
	scale := jw.PrefixScale
	if scale == 0 {
		scale = 0.1
	}
	if scale > 0.25 {
		scale = 0.25
	}
	maxPrefix := jw.MaxPrefix
	if maxPrefix == 0 {
		maxPrefix = 4
	}
	ra, rb := []rune(a), []rune(b)
	base := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < maxPrefix && ra[prefix] == rb[prefix] {
		prefix++
	}
	boost := float64(prefix) * scale
	if boost > 1 {
		boost = 1
	}
	return base + boost*(1-base)
}

// Name implements Measure.
func (JaroWinkler) Name() string { return "jaro-winkler" }

// winklerSlack is added to the Winkler bound: base + boost·(1−base)
// rises with the base, but where the base rises by one ulp, rounding
// can lower the float64 result by an ulp or two.
const winklerSlack = 1e-12

// SimilarityUpperBound implements SketchBounded. The Winkler score
// base + boost·(1-base) rises with both the Jaro base and the prefix
// boost (boost <= 1), and the shared prefix is at most maxPrefix and at
// most the matches, since Jaro matches a shared prefix rune for rune.
// So Jaro's bound, with the prefix that its match bound allows, never
// underestimates, give or take winklerSlack.
func (jw JaroWinkler) SimilarityUpperBound(a, b Sketch) float64 {
	base, matches := jaroBound(a, b)
	if matches == 0 {
		// No match, no shared prefix: the score is the Jaro score.
		return base
	}
	scale := jw.PrefixScale
	if scale == 0 {
		scale = 0.1
	}
	if scale < 0 {
		// A negative boost only lowers the score, so the Jaro bound
		// alone (scale 0) stays a valid upper bound.
		scale = 0
	}
	if scale > 0.25 {
		scale = 0.25
	}
	maxPrefix := jw.MaxPrefix
	if maxPrefix == 0 {
		maxPrefix = 4
	}
	boost := float64(maxInt(0, minInt(maxPrefix, matches))) * scale
	if boost > 1 {
		boost = 1
	}
	return min(1, base+boost*(1-base)+winklerSlack)
}
