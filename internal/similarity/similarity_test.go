package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLevenshteinDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2},
		{"résumé", "resume", 2},
	}
	for _, tc := range tests {
		if got := LevenshteinDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("LevenshteinDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDamerauDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"ab", "ba", 1}, // one transposition instead of two edits
		{"ca", "abc", 3},
		{"abcdef", "abcdfe", 1},
		{"", "x", 1},
		{"same", "same", 0},
	}
	for _, tc := range tests {
		if got := DamerauDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("DamerauDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.9444444444444445},
		{"DIXON", "DICKSONX", 0.7666666666666666},
		{"JELLYFISH", "SMELLYFISH", 0.8962962962962964},
		{"", "", 1},
		{"a", "", 0},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
	}
	for _, tc := range tests {
		if got := (Jaro{}).Similarity(tc.a, tc.b); !almostEqual(got, tc.want) {
			t.Errorf("Jaro(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.9611111111111111},
		{"DIXON", "DICKSONX", 0.8133333333333332},
		{"identical", "identical", 1},
	}
	for _, tc := range tests {
		if got := (JaroWinkler{}).Similarity(tc.a, tc.b); !almostEqual(got, tc.want) {
			t.Errorf("JaroWinkler(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// Prefix boost must help the shared-prefix pair more.
	base := (Jaro{}).Similarity("CRCW0805", "CRCW0812")
	boosted := (JaroWinkler{}).Similarity("CRCW0805", "CRCW0812")
	if boosted <= base {
		t.Errorf("JaroWinkler %v not above Jaro %v for shared prefix", boosted, base)
	}
	// Clamping: absurd scale must not push the score above 1.
	jw := JaroWinkler{PrefixScale: 0.9, MaxPrefix: 10}
	if got := jw.Similarity("prefix-aaaa", "prefix-bbbb"); got > 1 {
		t.Errorf("clamped JaroWinkler = %v > 1", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Fixed-Film Resistor, 63V!")
	want := []string{"fixed", "film", "resistor", "63v"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize("...---..."); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

func TestJaccard(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
	}{
		{"a b c", "b c d", 0.5},
		{"same tokens", "tokens same", 1},
		{"", "", 1},
		{"x", "", 0},
		{"abc", "xyz", 0},
	}
	for _, tc := range tests {
		if got := (Jaccard{}).Similarity(tc.a, tc.b); !almostEqual(got, tc.want) {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 2)
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams = %v, want %v", got, want)
	}
	if got := QGrams("", 2); len(got) != 0 {
		t.Errorf("QGrams empty = %v", got)
	}
	if got := QGrams("AB", 2); !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams not case-folded: %v", got)
	}
}

func TestMongeElkan(t *testing.T) {
	me := MongeElkan{}
	if got := me.Similarity("Paris France", "France Paris"); !almostEqual(got, 1) {
		t.Errorf("MongeElkan permutation = %v, want 1", got)
	}
	a := me.Similarity("Fixed Film Resistor", "Fixed-Film Resistance")
	b := me.Similarity("Fixed Film Resistor", "Tantalum Capacitor")
	if a <= b {
		t.Errorf("MongeElkan ranking wrong: related %v <= unrelated %v", a, b)
	}
	if got := me.Similarity("", ""); !almostEqual(got, 1) {
		t.Errorf("MongeElkan empty = %v", got)
	}
	if got := me.Similarity("x", ""); !almostEqual(got, 0) {
		t.Errorf("MongeElkan one-empty = %v", got)
	}
	if got := me.Name(); got != "monge-elkan(jaro-winkler)" {
		t.Errorf("Name = %q", got)
	}
}

func TestExactMeasures(t *testing.T) {
	if (Exact{}).Similarity("a", "a") != 1 || (Exact{}).Similarity("a", "A") != 0 {
		t.Error("Exact misbehaves")
	}
	if (ExactFold{}).Similarity("a", "A") != 1 || (ExactFold{}).Similarity("a", "b") != 0 {
		t.Error("ExactFold misbehaves")
	}
	f := Func{F: func(a, b string) float64 { return 0.5 }, ID: "half"}
	if f.Similarity("x", "y") != 0.5 || f.Name() != "half" {
		t.Error("Func adapter misbehaves")
	}
}

// allMeasures lists every Measure with default configuration.
func allMeasures() []Measure {
	return []Measure{
		Exact{}, ExactFold{}, Levenshtein{}, Damerau{}, Jaro{},
		JaroWinkler{}, Jaccard{}, MongeElkan{},
	}
}

// Property: every measure is symmetric, bounded to [0,1], and scores 1 on
// identical strings.
func TestMeasureProperties(t *testing.T) {
	measures := allMeasures()
	f := func(a, b string) bool {
		for _, m := range measures {
			sab := m.Similarity(a, b)
			sba := m.Similarity(b, a)
			if math.Abs(sab-sba) > 1e-9 {
				return false
			}
			if sab < 0 || sab > 1+1e-9 {
				return false
			}
			if s := m.Similarity(a, a); math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Levenshtein distance obeys the triangle inequality and
// Damerau distance never exceeds Levenshtein.
func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b, c string) bool {
		ab := LevenshteinDistance(a, b)
		bc := LevenshteinDistance(b, c)
		ac := LevenshteinDistance(a, c)
		if ac > ab+bc {
			return false
		}
		return DamerauDistance(a, b) <= ab
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// referenceLevenshtein is the straightforward rune-matrix implementation
// the optimized byte/pooled paths are checked against.
func referenceLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = minInt(minInt(d[i-1][j]+1, d[i][j-1]+1), d[i-1][j-1]+cost)
		}
	}
	return d[len(ra)][len(rb)]
}

// The ASCII byte fast path and the rune path must agree with the
// reference on ASCII inputs, and the rune path must handle multi-byte
// runes by rune count, not byte count.
func TestEditDistanceASCIIFastPathParity(t *testing.T) {
	ascii := []struct{ a, b string }{
		{"", ""}, {"", "abc"}, {"abc", ""}, {"kitten", "sitting"},
		{"CRCW0805-63V-ohm", "CRCW0812/63V/ohm"}, {"abcd", "abcd"},
		{"a", "ab"}, {"flaw", "lawn"},
	}
	for _, tc := range ascii {
		want := referenceLevenshtein(tc.a, tc.b)
		if got := LevenshteinDistance(tc.a, tc.b); got != want {
			t.Errorf("LevenshteinDistance(%q, %q) = %d, want %d", tc.a, tc.b, got, want)
		}
		if got := levRunes([]rune(tc.a), []rune(tc.b)); got != want {
			t.Errorf("levRunes(%q, %q) = %d, want %d", tc.a, tc.b, got, want)
		}
	}
	// Multi-byte runes: "héllo" vs "hello" is one substitution.
	if got := LevenshteinDistance("héllo", "hello"); got != 1 {
		t.Errorf(`LevenshteinDistance("héllo", "hello") = %d, want 1`, got)
	}
	if got := DamerauDistance("héllo", "héllo"); got != 0 {
		t.Errorf("DamerauDistance(identical unicode) = %d, want 0", got)
	}
	// Transposition across the ASCII/unicode boundary.
	if got := DamerauDistance("ab", "ba"); got != 1 {
		t.Errorf(`DamerauDistance("ab", "ba") = %d, want 1`, got)
	}
	if got := DamerauDistance("αβ", "βα"); got != 1 {
		t.Errorf(`DamerauDistance("αβ", "βα") = %d, want 1`, got)
	}
}

// Property: the sketch bounds never underestimate the real score, over
// random strings of any runes, and the edit-distance bound is the
// larger of the length difference and the bag distance.
func TestSimilarityUpperBound(t *testing.T) {
	f := func(a, b string) bool {
		checkSketchBound(t, a, b)
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for _, tc := range []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"ab", "ababababab", 0.2}, // length difference 8
		{"abcd", "wxyz", 0},       // no shared bucket: 4 substitutions
		{"abcd", "abxy", 0.5},     // 2 runes each side the other lacks
		{strings.Repeat("a", 30), strings.Repeat("a", 15), 0.5}, // both saturate: the length bounds it
	} {
		for _, m := range []SketchBounded{Levenshtein{}, Damerau{}} {
			if got := m.SimilarityUpperBound(NewSketch(tc.a), NewSketch(tc.b)); !almostEqual(got, tc.want) {
				t.Errorf("%T.SimilarityUpperBound(%q, %q) = %v, want %v", m, tc.a, tc.b, got, tc.want)
			}
		}
	}
}

// Property: SimilarityTokens on Tokenize output equals Similarity.
func TestSimilarityTokensParity(t *testing.T) {
	tokenized := []interface {
		Measure
		Tokenized
	}{
		Jaccard{},
		MongeElkan{},
		MongeElkan{Inner: Levenshtein{}},
	}
	f := func(a, b string) bool {
		for _, m := range tokenized {
			if m.Similarity(a, b) != m.SimilarityTokens(Tokenize(a), Tokenize(b)) {
				return false
			}
		}
		// Jaccard additionally scores prebuilt token sets.
		j := Jaccard{}
		return j.Similarity(a, b) == j.SimilarityTokenSets(sliceSet(Tokenize(a)), sliceSet(Tokenize(b)))
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The pooled scratch rows must be safe under concurrent use.
func TestEditDistanceConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			alphabet := "abcdefgh"
			rs := func(n int) string {
				b := make([]byte, n)
				for i := range b {
					b[i] = alphabet[rng.Intn(len(alphabet))]
				}
				return string(b)
			}
			for i := 0; i < 200; i++ {
				a, b := rs(rng.Intn(20)), rs(rng.Intn(20))
				if got, want := LevenshteinDistance(a, b), referenceLevenshtein(a, b); got != want {
					t.Errorf("concurrent LevenshteinDistance(%q, %q) = %d, want %d", a, b, got, want)
					return
				}
				DamerauDistance(a, b)
			}
		}(int64(w))
	}
	wg.Wait()
}
