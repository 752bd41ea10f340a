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

// boundedMeasures is every SketchBounded measure, with Jaro-Winkler at
// its default tuning, at a tuning whose boost saturates at 1, and with a
// negative prefix length and a negative scale.
var boundedMeasures = []interface {
	Measure
	SketchBounded
}{
	Levenshtein{},
	Damerau{},
	Jaro{},
	JaroWinkler{},
	JaroWinkler{PrefixScale: 0.25, MaxPrefix: 6},
	JaroWinkler{PrefixScale: 0.1, MaxPrefix: -1},
	JaroWinkler{PrefixScale: -0.1},
}

// checkSketchBound asserts, for every bounded measure and both argument
// orders, that the similarity of a and b does not exceed the bound of
// their sketches, that for the edit distances the length-only bound is
// at least the sketch bound, and that a sketch counts the runes []rune
// does.
func checkSketchBound(t *testing.T, a, b string) {
	t.Helper()
	ka, kb := NewSketch(a), NewSketch(b)
	if ka.n != len([]rune(a)) || kb.n != len([]rune(b)) {
		t.Fatalf("sketch lengths %d, %d; rune lengths %d, %d", ka.n, kb.n, len([]rune(a)), len([]rune(b)))
	}
	orders := []struct {
		x, y   string
		kx, ky Sketch
	}{{a, b, ka, kb}, {b, a, kb, ka}}
	for _, m := range boundedMeasures {
		for _, o := range orders {
			if sim, bound := m.Similarity(o.x, o.y), m.SimilarityUpperBound(o.kx, o.ky); sim > bound {
				t.Fatalf("%s %+v: Similarity(%q, %q) = %v exceeds the sketch bound %v", m.Name(), m, o.x, o.y, sim, bound)
			}
		}
	}
	for _, m := range []SketchBounded{Levenshtein{}, Damerau{}} {
		for _, o := range orders {
			if band, bound := EditDistanceLengthBound(o.kx.Len(), o.ky.Len()), m.SimilarityUpperBound(o.kx, o.ky); band < bound {
				t.Fatalf("%T (%q, %q): length bound %v is below the sketch bound %v", m, o.x, o.y, band, bound)
			}
		}
	}
}

// FuzzSketchBound fuzzes the sketch bounds against the measures they
// bound. The seeds hold multi-byte runes, invalid UTF-8, values over
// 64 runes, runes sharing a bucket, and a rune repeated past a
// bucket's saturation at 15.
func FuzzSketchBound(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"", "abc"},
		{"kitten", "sitting"},
		{"CRCW0805-63V-ohm", "CRCW0812/63V/ohm"},
		{"CRCW0805-63V-Ω", "CRCW0812/63V/Ω"}, // multi-byte runes
		{"résumé", "resume"},
		{"a\xffb", "a\ufffdb"},   // an invalid byte reads as U+FFFD
		{"\xff\xfe\xfd", "\xc3"}, // invalid UTF-8 only
		{strings.Repeat("xy", 50), strings.Repeat("yx", 50)}, // > 64 runes
		{strings.Repeat("a", 30), strings.Repeat("a", 15)},   // saturated bucket
		{strings.Repeat("a", 17) + "b", "b" + strings.Repeat("a", 16)},
		{strings.Repeat("0", 20), strings.Repeat("P", 20)}, // '0' and 'P' share a bucket
		{"ABCD", "abcd"}, // 'A' and 'a' share a bucket
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkSketchBound(t, a, b)
	})
}

// TestJaroUpperBound property-checks the Jaro family's sketch bounds
// over random pairs of a small alphabet, where matches and shared
// prefixes are common, and pins what a bucket bound adds: no shared
// bucket, no match.
func TestJaroUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha := "abcdefgh"
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	for i := 0; i < 2000; i++ {
		checkSketchBound(t, randStr(rng.Intn(20)), randStr(rng.Intn(20)))
	}
	abcd, wxyz := NewSketch("abcd"), NewSketch("wxyz")
	for _, m := range []SketchBounded{Jaro{}, JaroWinkler{}} {
		if got := m.SimilarityUpperBound(abcd, wxyz); got != 0 {
			t.Errorf("%T bound for strings in disjoint buckets = %v, want 0", m, got)
		}
	}
	if got := (Jaro{}).SimilarityUpperBound(NewSketch("abc"), NewSketch("abd")); !almostEqual(got, (2.0/3+2.0/3+1)/3) {
		t.Errorf("Jaro bound for two matches of three = %v, want %v", got, (2.0/3+2.0/3+1)/3)
	}
}
