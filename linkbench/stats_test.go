package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // unsorted on purpose
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
	}{
		{10000, 99.9}, // exactly 10 beyond p99.9
		{2000, 99},    // p99.9 would leave 2
		{1000, 99},    // p99.9 would leave 1
		{200, 95},     // exactly 10 beyond p95
		{199, 90},     // p95 leaves 9
		{100, 90},     // exactly 10 beyond p90
		{99, 75},      // p90 leaves 9
		{20, 50},      // only the median qualifies
	}
	for _, c := range cases {
		got := tailOf(ramp(c.n))
		// On the ramp 1..n the Harrell–Davis estimate of quantile q is
		// n*q + 1/2 to within the weights' rounding.
		want := float64(c.n)*c.pct/100 + 0.5
		if got.Pct != c.pct || math.Abs(got.Value-want) > 0.01 || got.N != c.n {
			t.Errorf("n=%d: got p%g=%g of %d, want p%g=%g", c.n, got.Pct, got.Value, got.N, c.pct, want)
		}
	}
	if got := tailOf(ramp(11)); got != (tail{Pct: 100, Value: 11, N: 11}) {
		t.Errorf("n=11: got %+v, want the maximum as p100", got)
	}
	for _, c := range []int{20, 57, 100, 333, 5000} {
		got := tailOf(ramp(c))
		beyond := 0
		for _, x := range ramp(c) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond, want >= %d", c, got.Pct, beyond, minBeyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestMedianHarrellDavis(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	// n=3: weights I_x(2,2) = 3x^2-2x^3 at 1/3 and 2/3, so 7/27,
	// 13/27 and 7/27.
	if got := median([]float64{27, 0, 0}); !near(got, 7) {
		t.Errorf("median of {0,0,27} = %g, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); !near(got, 3) {
		t.Errorf("median of {1,3,5} = %g, want 3 (symmetric)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of {1,2,3,4} = %g, want 2.5 (symmetric)", got)
	}
	if got := median([]float64{6, 6, 6, 6, 6}); !near(got, 6) {
		t.Errorf("median of a constant = %g, want 6 (weights sum to 1)", got)
	}
	if got := median([]float64{42}); got != 42 {
		t.Errorf("median of one = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g", got)
	}
	// Two well-separated modes, 49 and 51 samples low: moving two
	// samples across the gap makes the nearest-rank median jump from
	// one mode to the other, while this estimate moves by a small part
	// of the gap.
	modes := func(low int) []float64 {
		var xs []float64
		for i := 0; i < 100; i++ {
			if i < low {
				xs = append(xs, 20+float64(i%5))
			} else {
				xs = append(xs, 50+float64(i%5))
			}
		}
		return xs
	}
	if d := median(modes(49)) - median(modes(51)); d <= 0 || d > 8 {
		t.Errorf("median moved %g across a 26-wide gap for two samples, want a small part of it", d)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	a, b := schedule(5000, 20, 7), schedule(5000, 20, 7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if slices.Equal(a, schedule(5000, 20, 8)) {
		t.Fatal("different seeds gave one schedule")
	}
	var gaps []float64
	prev := time.Duration(0)
	for i, d := range a {
		if d < prev {
			t.Fatalf("send %d due before send %d", i, i-1)
		}
		gaps = append(gaps, (d - prev).Seconds())
		prev = d
	}
	// Exponential gaps: mean 1/rate, and standard deviation equal to it.
	var m, v float64
	for _, g := range gaps {
		m += g / float64(len(gaps))
	}
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	sd := math.Sqrt(v / float64(len(gaps)))
	if math.Abs(m-0.05)/0.05 > 0.05 || math.Abs(sd-0.05)/0.05 > 0.08 {
		t.Errorf("gaps: mean %.4fs sd %.4fs, want both near 0.05s", m, sd)
	}
}

func TestLatenessAgainstSchedule(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	sent := []time.Duration{time.Millisecond, 9 * time.Millisecond, 35 * time.Millisecond}
	got := lateness(due, sent)
	if want := []float64{1, 0, 15}; !slices.Equal(got, want) {
		t.Errorf("lateness = %v, want %v (an early send is not late)", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "a1", Start: 15, End: 35, Parent: 1}, // grandchild
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	got := selfTimes(spans)
	// root: 100 minus [10,60] and [90,100] = 100 - 60.
	want := []int64{40, 10, 30, 30, 20, 50}
	if !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestQualityOnHandBuiltCase(t *testing.T) {
	// Ten queried items: eight answered, six of them correctly; seven of
	// the ten keep their expert link inside the reduced space.
	q := quality{Items: 10, Answered: 8, Correct: 6, Spaced: 10, InSpace: 7}
	p, r := 6.0/8, 6.0/10
	if got, want := q.F1(), 2*p*r/(p+r); math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, want)
	}
	if got := q.Completeness(); got != 0.7 {
		t.Errorf("completeness = %v, want 0.7", got)
	}
	if got := (quality{Items: 4, Answered: 3}).F1(); got != 0 {
		t.Errorf("F1 with nothing correct = %v, want 0", got)
	}
	if got := (quality{}).Completeness(); got != 0 {
		t.Errorf("completeness of nothing = %v, want 0", got)
	}
	perfect := quality{Items: 5, Answered: 5, Correct: 5}
	if got := perfect.F1(); got != 1 {
		t.Errorf("perfect F1 = %v", got)
	}
}
