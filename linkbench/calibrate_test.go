package main

import "testing"

func TestEditDistance(t *testing.T) {
	row := make([]int, 64)
	for _, c := range []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"ABC", "", 3}, {"", "AB", 2}, {"kitten", "sitting", 3}, {"flaw", "lawn", 2}, {"P-100", "P-100", 0},
	} {
		if got := editDistance([]byte(c.a), []byte(c.b), row); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// The reference unit must not allocate: garbage of its own would make
// its time depend on when the program's collector runs.
func TestRefUnitAllocatesNothing(t *testing.T) {
	r, err := newRefUnit()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(2, r.run); n != 0 {
		t.Errorf("one reference unit allocates %g times, want 0", n)
	}
}

func TestSpeedIsReferenceOverNominal(t *testing.T) {
	var b bench
	for _, v := range []float64{2 * refUnitMs, 2 * refUnitMs, 2 * refUnitMs} {
		b.refWallMs.add(windowPhase, v)
		b.refCPUMs.add(windowPhase, v/2)
	}
	wall, cpu := b.speed(windowPhase)
	if abs(wall-2) > 1e-9 || abs(cpu-1) > 1e-9 {
		t.Errorf("speed = %g wall, %g CPU; want 2 and 1", wall, cpu)
	}
}

func abs(x float64) float64 { return max(x, -x) }

func TestNominalScalesEachPart(t *testing.T) {
	var tm timings
	// 1.4 ms: 0.2 stolen, 0.6 in fsync, 0.6 of other work.
	tm.add(setupPhase, timing{wall: 1.4, stolen: 0.2, fsync: 0.6})
	tm.add(setupPhase, timing{wall: 6}) // no fsync: disk never divides
	got := tm.nominal(setupPhase, 2, 3)
	if want := []float64{0.6/2 + 0.6/3, 3}; len(got) != 2 || abs(got[0]-want[0]) > 1e-9 || got[1] != want[1] {
		t.Errorf("nominal = %v, want %v", got, want)
	}
	if got := tm.nominal(setupPhase, 1, 0); got[1] != 6 {
		t.Errorf("with no probes, an operation without fsync should keep its time: got %v", got)
	}
}
