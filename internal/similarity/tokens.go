package similarity

import (
	"sort"
	"strings"
	"unicode"
)

// Tokenize splits a string into lower-cased alphanumeric tokens; the
// shared tokenizer of the token-set measures below.
func Tokenize(s string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

func sliceSet(tokens []string) map[string]struct{} {
	set := make(map[string]struct{}, len(tokens))
	for _, tok := range tokens {
		set[tok] = struct{}{}
	}
	return set
}

// Jaccard is the token-set Jaccard coefficient |A∩B| / |A∪B|.
type Jaccard struct{}

// Similarity implements Measure.
func (j Jaccard) Similarity(a, b string) float64 {
	return j.SimilarityTokens(Tokenize(a), Tokenize(b))
}

// SimilarityTokens implements Tokenized.
func (j Jaccard) SimilarityTokens(ta, tb []string) float64 {
	return j.SimilarityTokenSets(sliceSet(ta), sliceSet(tb))
}

// SimilarityTokenSets implements TokenSetScored.
func (Jaccard) SimilarityTokenSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for tok := range sa {
		if _, ok := sb[tok]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Name implements Measure.
func (Jaccard) Name() string { return "jaccard" }

// qgramSet returns the set of padded lower-case q-grams of s.
func qgramSet(s string, q int) map[string]struct{} {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return nil
	}
	runes := make([]rune, 0, len(s)+2*(q-1))
	for i := 0; i < q-1; i++ {
		runes = append(runes, '#')
	}
	runes = append(runes, []rune(s)...)
	for i := 0; i < q-1; i++ {
		runes = append(runes, '#')
	}
	set := map[string]struct{}{}
	for i := 0; i+q <= len(runes); i++ {
		set[string(runes[i:i+q])] = struct{}{}
	}
	return set
}

// QGrams returns the sorted padded q-grams of s; exported for the
// bi-gram blocking baseline which indexes them.
func QGrams(s string, q int) []string {
	set := qgramSet(s, q)
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// MongeElkan is the asymmetric-made-symmetric Monge-Elkan hybrid: each
// token of one string is matched to its best-scoring token of the other
// under an inner measure, and the two directions are averaged.
type MongeElkan struct {
	// Inner scores token pairs; nil means JaroWinkler{}.
	Inner Measure
}

// Similarity implements Measure.
func (me MongeElkan) Similarity(a, b string) float64 {
	return me.SimilarityTokens(Tokenize(a), Tokenize(b))
}

// SimilarityTokens implements Tokenized.
func (me MongeElkan) SimilarityTokens(ta, tb []string) float64 {
	inner := me.Inner
	if inner == nil {
		inner = JaroWinkler{}
	}
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	dir := func(xs, ys []string) float64 {
		sum := 0.0
		for _, x := range xs {
			best := 0.0
			for _, y := range ys {
				if s := inner.Similarity(x, y); s > best {
					best = s
				}
			}
			sum += best
		}
		return sum / float64(len(xs))
	}
	return (dir(ta, tb) + dir(tb, ta)) / 2
}

// Name implements Measure.
func (me MongeElkan) Name() string {
	inner := me.Inner
	if inner == nil {
		inner = JaroWinkler{}
	}
	return "monge-elkan(" + inner.Name() + ")"
}
