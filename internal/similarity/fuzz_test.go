package similarity

import (
	"math/rand"
	"strings"
	"testing"
)

// checkEditDistances asserts every production edit-distance path —
// dispatching kernels, prepared patterns — against the rune-path DP
// reference for one input pair.
func checkEditDistances(t *testing.T, a, b string) {
	t.Helper()
	wantLev := ReferenceLevenshteinDistance(a, b)
	wantDam := ReferenceDamerauDistance(a, b)
	if got := LevenshteinDistance(a, b); got != wantLev {
		t.Fatalf("LevenshteinDistance(%q, %q) = %d, reference DP = %d", a, b, got, wantLev)
	}
	if got := LevenshteinDistance(b, a); got != wantLev {
		t.Fatalf("LevenshteinDistance(%q, %q) = %d, want symmetric %d", b, a, got, wantLev)
	}
	if got := DamerauDistance(a, b); got != wantDam {
		t.Fatalf("DamerauDistance(%q, %q) = %d, reference DP = %d", a, b, got, wantDam)
	}
	if got := DamerauDistance(b, a); got != wantDam {
		t.Fatalf("DamerauDistance(%q, %q) = %d, want symmetric %d", b, a, got, wantDam)
	}
	if wantDam > wantLev {
		t.Fatalf("DamerauDistance(%q, %q) = %d exceeds Levenshtein %d", a, b, wantDam, wantLev)
	}
	// The prepared patterns must agree with the plain similarity exactly.
	if got, want := (Levenshtein{}).Prepare(a).Similarity(b), (Levenshtein{}).Similarity(a, b); got != want {
		t.Fatalf("prepared Levenshtein(%q, %q) = %v, plain = %v", a, b, got, want)
	}
	if got, want := (Damerau{}).Prepare(a).Similarity(b), (Damerau{}).Similarity(a, b); got != want {
		t.Fatalf("prepared Damerau(%q, %q) = %v, plain = %v", a, b, got, want)
	}
}

// FuzzEditDistance fuzzes the bit-parallel kernels against the DP
// oracle over arbitrary UTF-8 (and arbitrary byte) inputs, including
// patterns longer than one machine word and multi-byte runes — the
// boundaries where the ASCII dispatch hands off to the fallbacks.
func FuzzEditDistance(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"", "abc"},
		{"kitten", "sitting"},
		{"CRCW0805-63V-ohm", "CRCW0812/63V/ohm"},
		{"ab", "ba"},
		{"abcd", "acbd"},
		{"CRCW0805-63V-Ω", "CRCW0812/63V/Ω"}, // multi-byte runes
		{"résumé", "resume"},
		{strings.Repeat("a", 63) + "b", strings.Repeat("a", 64)},  // word boundary
		{strings.Repeat("xy", 50), strings.Repeat("yx", 50)},      // > 64 chars
		{strings.Repeat("a", 100), strings.Repeat("a", 70) + "b"}, // both > 64
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkEditDistances(t, a, b)
	})
}

// TestEditDistanceExhaustiveSmall compares every pair of strings up to
// length 4 over a 3-letter alphabet (plus transposition-rich length-5
// pairs) against the reference DP — small enough to run in every `go
// test`, dense enough to pin the kernels' carry logic.
func TestEditDistanceExhaustiveSmall(t *testing.T) {
	alphabet := []byte("abc")
	var all []string
	var gen func(prefix []byte, depth int)
	gen = func(prefix []byte, depth int) {
		all = append(all, string(prefix))
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			gen(append(prefix, c), depth-1)
		}
	}
	gen(nil, 4)
	for _, a := range all {
		for _, b := range all {
			checkEditDistances(t, a, b)
		}
	}
}

// TestEditDistanceRandomLong drives long and mixed-script pairs through
// every dispatch path: pure ASCII beyond 64 chars (DP fallback), ASCII
// around the word boundary (bit-parallel), and multi-byte runes (rune
// path).
func TestEditDistanceRandomLong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabets := []string{
		"ab",
		"abcdefgh",
		"abcdefghijklmnopqrstuvwxyz0123456789-/",
		"abαβ", // mixed ASCII and Greek
	}
	randStr := func(alpha string, n int) string {
		runes := []rune(alpha)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(runes[rng.Intn(len(runes))])
		}
		return sb.String()
	}
	for i := 0; i < 400; i++ {
		alpha := alphabets[i%len(alphabets)]
		la, lb := rng.Intn(130), rng.Intn(130)
		checkEditDistances(t, randStr(alpha, la), randStr(alpha, lb))
	}
}

// TestEditDistanceZeroAllocASCII pins the allocation contract of the
// hot path: scoring ASCII pairs — short (bit-parallel) or long (pooled
// DP rows) — allocates nothing per call, and neither does scoring
// against a prepared pattern.
func TestEditDistanceZeroAllocASCII(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis; allocation counts are only meaningful without it")
	}
	short1, short2 := "CRCW0805-63V-ohm", "CRCW0812/63V/ohm"
	long1 := strings.Repeat("CRCW0805-63V-ohm ", 6) // > 64 chars
	long2 := strings.Repeat("CRCW0812/63V/ohm ", 6)
	lp := (Levenshtein{}).Prepare(short1)
	dp := (Damerau{}).Prepare(short1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"lev-short", func() { LevenshteinDistance(short1, short2) }},
		{"lev-long", func() { LevenshteinDistance(long1, long2) }},
		{"dam-short", func() { DamerauDistance(short1, short2) }},
		{"dam-long", func() { DamerauDistance(long1, long2) }},
		{"lev-sim", func() { (Levenshtein{}).Similarity(short1, short2) }},
		{"dam-sim", func() { (Damerau{}).Similarity(short1, short2) }},
		{"lev-prepared", func() { lp.Similarity(short2) }},
		{"dam-prepared", func() { dp.Similarity(short2) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestJaroUpperBound property-checks the new length bounds: over random
// pairs the bound computed from the rune lengths must never fall below
// the measured similarity, for Jaro and for Winkler variants with
// non-default tunings.
func TestJaroUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	measures := []struct {
		name    string
		sim     func(a, b string) float64
		bound   func(la, lb int) float64
		measure Measure
	}{
		{"jaro", Jaro{}.Similarity, Jaro{}.SimilarityUpperBound, Jaro{}},
		{"jaro-winkler", JaroWinkler{}.Similarity, JaroWinkler{}.SimilarityUpperBound, JaroWinkler{}},
		{"jaro-winkler-tuned", JaroWinkler{PrefixScale: 0.25, MaxPrefix: 6}.Similarity,
			JaroWinkler{PrefixScale: 0.25, MaxPrefix: 6}.SimilarityUpperBound,
			JaroWinkler{PrefixScale: 0.25, MaxPrefix: 6}},
	}
	// The engine fast path requires LengthBounded; a silent interface
	// regression would disable the pruning without failing any test.
	for _, m := range measures {
		if _, ok := m.measure.(LengthBounded); !ok {
			t.Fatalf("%s does not implement LengthBounded", m.name)
		}
	}
	alpha := "abcdefgh"
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		a, b := randStr(rng.Intn(20)), randStr(rng.Intn(20))
		la, lb := len([]rune(a)), len([]rune(b))
		for _, m := range measures {
			sim, bound := m.sim(a, b), m.bound(la, lb)
			if sim > bound+1e-12 {
				t.Fatalf("%s(%q, %q) = %v exceeds bound %v", m.name, a, b, sim, bound)
			}
		}
	}
}
