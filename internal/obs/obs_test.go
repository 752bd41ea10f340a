package obs

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_in_flight", "in flight")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read zero")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	text := scrape(t, r)
	// Cumulative: le=0.1 holds 0.05 and 0.1 (bounds are inclusive).
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.1"} 2`,
		`test_lat_seconds_bucket{le="1"} 3`,
		`test_lat_seconds_bucket{le="10"} 4`,
		`test_lat_seconds_bucket{le="+Inf"} 5`,
		`test_lat_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestVecChildrenAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "requests", "path", "code")
	v.With("/v1/link", "200").Add(3)
	v.With("/v1/link", "400").Inc()
	v.With("weird\"\\\n", "200").Inc()
	if v.With("/v1/link", "200") != v.With("/v1/link", "200") {
		t.Error("With must return the same child for the same values")
	}
	text := scrape(t, r)
	for _, want := range []string{
		`test_req_total{path="/v1/link",code="200"} 3`,
		`test_req_total{path="/v1/link",code="400"} 1`,
		`test_req_total{path="weird\"\\\n",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("test_live", "live value", func() float64 { n++; return n })
	r.CounterFunc("test_done_total", "done", func() float64 { return 7 })
	text := scrape(t, r)
	if !strings.Contains(text, "test_live 42") {
		t.Errorf("func gauge not scraped:\n%s", text)
	}
	if !strings.Contains(text, "test_done_total 7") {
		t.Errorf("func counter not scraped:\n%s", text)
	}
}

func TestRegistrationPanics(t *testing.T) {
	for name, fn := range map[string]func(r *Registry){
		"duplicate":     func(r *Registry) { r.Counter("a_total", "x"); r.Counter("a_total", "x") },
		"bad name":      func(r *Registry) { r.Counter("9bad", "x") },
		"bad label":     func(r *Registry) { r.CounterVec("a_total", "x", "9bad") },
		"le label":      func(r *Registry) { r.HistogramVec("h", "x", DefBuckets(), "le") },
		"no buckets":    func(r *Registry) { r.Histogram("h", "x", nil) },
		"unsorted":      func(r *Registry) { r.Histogram("h", "x", []float64{1, 1}) },
		"label arity":   func(r *Registry) { v := r.CounterVec("a_total", "x", "l"); v.With("a", "b") },
		"empty buckets": func(r *Registry) { r.Histogram("h", "x", []float64{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		})
	}
}

func TestExpositionValidity(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_requests_total", "requests", "path")
	h := r.HistogramVec("test_latency_seconds", "latency", DefBuckets(), "path")
	g := r.Gauge("test_in_flight", "in flight")
	c.With("/a").Inc()
	h.With("/a").Observe(0.01)
	g.Set(3)
	r.GaugeFunc("test_f", "f", func() float64 { return 1.5 })
	ValidateExposition(t, scrape(t, r))
}

// ValidateExposition asserts the text is well-formed exposition format
// per Lint: every sample parses, names and labels are legal, every
// sample has HELP and TYPE metadata, histogram buckets are cumulative
// and consistent with _count.
func ValidateExposition(t *testing.T, text string) {
	t.Helper()
	for _, err := range Lint(text) {
		t.Error(err)
	}
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_ops_total", "ops", "kind")
	h := r.HistogramVec("test_lat_seconds", "lat", DefBuckets(), "kind")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				_ = r.WritePrometheus(&b)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			kind := fmt.Sprintf("k%d", w%3)
			for i := 0; i < perWorker; i++ {
				c.With(kind).Inc()
				h.With(kind).Observe(float64(i) / perWorker)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	total := uint64(0)
	for _, k := range []string{"k0", "k1", "k2"} {
		total += c.With(k).Value()
	}
	if total != workers*perWorker {
		t.Errorf("lost increments: %d != %d", total, workers*perWorker)
	}
	ValidateExposition(t, scrape(t, r))
}

func TestTraceAndSpans(t *testing.T) {
	var sunk []Stage
	tr := NewTrace(func(name string, d time.Duration) { sunk = append(sunk, Stage{name, d}) })
	ctx := WithTrace(context.Background(), tr)
	sp := StartSpan(ctx, "blocking")
	time.Sleep(time.Millisecond)
	sp.End()
	StartSpan(ctx, "scoring").End()
	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "blocking" || stages[1].Name != "scoring" {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Duration <= 0 {
		t.Error("blocking span has no duration")
	}
	if len(sunk) != 2 {
		t.Errorf("sink saw %d stages, want 2", len(sunk))
	}
	// No trace in context: spans are inert.
	StartSpan(context.Background(), "x").End()
	if got := TraceFrom(context.Background()); got != nil {
		t.Errorf("TraceFrom(empty ctx) = %v", got)
	}
}

func TestTraceCounts(t *testing.T) {
	tr := NewTrace(nil)
	tr.Add("candidates", 3)
	tr.Add("pruned", 0)
	tr.Add("candidates", 4)
	want := []Count{{"candidates", 7}, {"pruned", 0}}
	if got := tr.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
	// A nil trace (no trace in the context) ignores counts.
	var none *Trace
	none.Add("candidates", 1)
	if got := none.Counts(); got != nil {
		t.Errorf("nil trace Counts() = %+v", got)
	}
}

// BenchmarkObserve pins the hot-path observation cost: the acceptance
// bound is <= 100ns/op for counter and histogram observes.
func BenchmarkObserve(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_ops_total", "ops")
	h := r.Histogram("bench_lat_seconds", "lat", DefBuckets())
	g := r.Gauge("bench_gauge", "g")
	b.Run("Counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("Histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.0042)
		}
	})
	b.Run("Gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Add(1)
		}
	})
}

// BenchmarkVecWith measures the labeled fast path (sync.Map hit).
func BenchmarkVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_req_total", "req", "path", "code")
	v.With("/v1/link", "200").Inc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.With("/v1/link", "200").Inc()
	}
}
