package similarity

// Prepared implementations of the edit-distance family: the pattern
// bitmap of the bit-parallel kernels is a pure function of one side, so
// an indexed value's bitmap is built once and amortized over every pair
// it is compared in. Values outside the kernels' domain (non-ASCII, or
// longer than one machine word) prepare to a thin wrapper that falls
// back to the regular Similarity path, so Prepare never changes results,
// only cost.

// editPattern is the shared prepared form of Levenshtein and Damerau: a
// persistent peq table when the value fits the bit-parallel kernels,
// plus the original value for fallbacks.
type editPattern struct {
	value string
	peq   *peqTable // nil when the value cannot be a Myers pattern
	dam   bool      // transposition-aware kernel and fallback
}

func newEditPattern(a string, dam bool) *editPattern {
	p := &editPattern{value: a, dam: dam}
	if fitsMyers(a) {
		p.peq = new(peqTable)
		buildPeq(p.peq, a)
	}
	return p
}

// distance returns the configured edit distance to an ASCII string b;
// callers guarantee p.peq != nil.
func (p *editPattern) distance(b string) int {
	if p.dam {
		return myersDamPeq(p.peq, len(p.value), b)
	}
	return myersLevPeq(p.peq, len(p.value), b)
}

// Similarity implements Prepared.
func (p *editPattern) Similarity(b string) float64 {
	if p.value == b {
		return 1
	}
	if p.peq != nil && isASCII(b) {
		// a != b and len(a) >= 1, so the denominator is positive.
		return 1 - float64(p.distance(b))/float64(maxInt(len(p.value), len(b)))
	}
	if p.dam {
		return Damerau{}.Similarity(p.value, b)
	}
	return Levenshtein{}.Similarity(p.value, b)
}

// Prepare implements PreparedMeasure.
func (Levenshtein) Prepare(a string) Prepared { return newEditPattern(a, false) }

// Prepare implements PreparedMeasure.
func (Damerau) Prepare(a string) Prepared { return newEditPattern(a, true) }
