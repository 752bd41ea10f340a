package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail metric may report, from
// the highest down. The tail is the highest of them that leaves at least
// minBeyond samples above it, so it never rests on a handful of values.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tail is one tail-latency reading: the percentile chosen, its value
// and the sample count it was taken from.
type tail struct {
	Pct   float64
	Value float64
	N     int
}

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The small epsilon keeps float error from pushing an exact rank up
	// by one (99.9/100*10000 is 9990.000000000002).
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile is the Harrell–Davis estimate of quantile q (0 < q < 1) of
// xs, or 0 for none: a mean of every order statistic, weighted by how
// likely each is to be the q-quantile (a Beta((n+1)q, (n+1)(1-q))
// distribution over the sorted sample). Link latencies are bimodal
// (items with small and large spaces), and a single order statistic
// near a gap between modes jumps with the sample; this estimate moves
// smoothly instead.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		c := betaInc(a, b, float64(i+1)/float64(n))
		est += (c - prev) * x
		prev = c
	}
	return est
}

// median is the Harrell–Davis median of xs, or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOf picks the highest ladder percentile with at least minBeyond
// samples strictly after its nearest rank, and estimates it with
// quantile. With fewer than minBeyond+1 samples no percentile
// qualifies and the maximum is reported as the 100th.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return tail{Pct: p, Value: quantile(xs, p/100), N: n}
		}
	}
	return tail{Pct: 100, Value: sorted(xs)[n-1], N: n}
}

// betaInc is the regularized incomplete beta function I_x(a, b), by
// its continued fraction (Lentz's method).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// schedule returns n open-loop send offsets from the start of a window:
// a Poisson process at rate per second, drawn from seed. The same seed
// always gives the same schedule.
func schedule(n int, rate float64, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5851f42d4c957f2d))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// lateness returns how late each send left against its due offset:
// sent[i]-due[i], floored at zero.
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = ms(d)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call: its name, interval, parent span index (-1 for
// a root) and the request it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Children may
// overlap each other (parallel work), so their intervals are merged
// before subtracting, and they are clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// quality scores top-1 answers against expert links. Each queried item
// has exactly one expert link; an answer is its best match at or above
// the threshold, or none.
type quality struct {
	Items    int // queried items, each with one expert link
	Answered int // items with a top-1 match
	Correct  int // top-1 match equal to the expert link
	InSpace  int // expert local item inside the reduced space
	Spaced   int // items whose space was checked
}

// F1 is the harmonic mean of precision (correct / answered) and recall
// (correct / items).
func (q quality) F1() float64 {
	if q.Correct == 0 {
		return 0
	}
	p := float64(q.Correct) / float64(q.Answered)
	r := float64(q.Correct) / float64(q.Items)
	return 2 * p * r / (p + r)
}

// Completeness is the share of checked items whose expert link survives
// the space reduction.
func (q quality) Completeness() float64 {
	if q.Spaced == 0 {
		return 0
	}
	return float64(q.InSpace) / float64(q.Spaced)
}
