// Package similarity provides the string similarity measures the linking
// step uses to compare data item descriptions inside a linking (sub)space.
// All measures are normalized to [0, 1] where 1 means identical, and all
// are safe for concurrent use after construction.
//
// The paper does not prescribe a matcher — its contribution is reducing
// the space the matcher runs on — so this package supplies the standard
// record-linkage toolbox: edit-distance family, Jaro family, token-set
// Jaccard, the Monge-Elkan hybrid, Soundex and longest common substring.
package similarity

import "strings"

// Measure scores the similarity of two strings in [0, 1].
type Measure interface {
	// Similarity returns 1 for identical inputs and approaches 0 as they
	// diverge.
	Similarity(a, b string) float64
	// Name identifies the measure, for reports and configuration.
	Name() string
}

// Tokenized is implemented by measures whose score is a pure function of
// Tokenize(a) and Tokenize(b). Callers that compare the same values many
// times (again, the linkage engine) tokenize each value once up front and
// call SimilarityTokens, skipping the per-call lowercasing and splitting.
// Implementations must satisfy
// Similarity(a, b) == SimilarityTokens(Tokenize(a), Tokenize(b)).
type Tokenized interface {
	// SimilarityTokens scores two pre-tokenized values.
	SimilarityTokens(a, b []string) float64
}

// TokenSetScored is implemented by measures whose score is a pure
// function of the two inputs' token *sets*. Callers that compare the
// same values many times build each set once and call
// SimilarityTokenSets, eliminating the per-comparison map construction
// of SimilarityTokens. Implementations must satisfy
// SimilarityTokens(a, b) == SimilarityTokenSets(sliceSet(a), sliceSet(b)).
type TokenSetScored interface {
	// SimilarityTokenSets scores two prebuilt token sets.
	SimilarityTokenSets(a, b map[string]struct{}) float64
}

// Prepared is one side of a comparison precompiled by a PreparedMeasure:
// whatever per-value work the measure can hoist out of the pairwise loop
// (the Myers pattern bitmap of the edit distances) done once. A Prepared
// value is immutable and safe for concurrent use.
type Prepared interface {
	// Similarity scores the prepared left-hand value against b. Must
	// equal the owning measure's Similarity(a, b) exactly.
	Similarity(b string) float64
}

// PreparedMeasure is implemented by measures that can precompile the
// left side of a comparison. Callers that score one value against many
// (the linkage engine scoring a query item against its candidates)
// prepare it once and score every right-hand string with it.
// Implementations must satisfy Prepare(a).Similarity(b) ==
// Similarity(a, b) for all a, b.
type PreparedMeasure interface {
	Measure
	// Prepare precompiles a as the left-hand side of future comparisons.
	Prepare(a string) Prepared
}

// Func adapts a plain function to the Measure interface.
type Func struct {
	F  func(a, b string) float64
	ID string
}

// Similarity implements Measure.
func (f Func) Similarity(a, b string) float64 { return f.F(a, b) }

// Name implements Measure.
func (f Func) Name() string { return f.ID }

// Exact scores 1 for byte-identical strings and 0 otherwise.
type Exact struct{}

// Similarity implements Measure.
func (Exact) Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Name implements Measure.
func (Exact) Name() string { return "exact" }

// ExactFold scores 1 for case-insensitively equal strings, 0 otherwise.
type ExactFold struct{}

// Similarity implements Measure.
func (ExactFold) Similarity(a, b string) float64 {
	if strings.EqualFold(a, b) {
		return 1
	}
	return 0
}

// Name implements Measure.
func (ExactFold) Name() string { return "exact-fold" }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
