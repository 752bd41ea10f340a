package obs

import (
	"context"
	"sync"
	"time"
)

// Stage-level tracing without a tracing dependency: a Trace rides in the
// request context, pipeline stages open Spans against it, and each
// closed Span lands both in the Trace (for an opt-in per-request
// breakdown, e.g. /v1/link?debug=timings) and in whatever sink the
// Trace owner wired (typically a stage-labeled latency histogram).
// Code that never sees a Trace in its context pays one context lookup
// per span and nothing else — no clock reads, no allocation. A Trace
// also carries the request's work counters (Add): how much a stage did,
// next to how long it took.

// Stage is one timed pipeline stage of a request.
type Stage struct {
	Name     string
	Duration time.Duration
}

// Trace collects the timed stages of one request. Safe for concurrent
// use (parallel stages may end on different goroutines).
type Trace struct {
	mu     sync.Mutex
	stages []Stage
	counts []Count
	sink   func(name string, d time.Duration)
}

// Count is one named work counter of a request, such as the candidate
// pairs a link query scored.
type Count struct {
	Name string
	N    int64
}

// NewTrace returns an empty trace. sink, when non-nil, additionally
// receives every closed span — the hook that feeds per-stage histograms
// on every request, not just traced ones.
func NewTrace(sink func(name string, d time.Duration)) *Trace {
	return &Trace{sink: sink}
}

// Observe records one finished stage.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Duration: d})
	t.mu.Unlock()
	if t.sink != nil {
		t.sink(name, d)
	}
}

// Stages returns a copy of the recorded stages in completion order.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Stage(nil), t.stages...)
}

// Add adds n to the trace's work counter name, creating it on first
// use.
func (t *Trace) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		if t.counts[i].Name == name {
			t.counts[i].N += n
			return
		}
	}
	t.counts = append(t.counts, Count{Name: name, N: n})
}

// Counts returns a copy of the work counters in first-use order.
func (t *Trace) Counts() []Count {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Count(nil), t.counts...)
}

type traceKey struct{}

// WithTrace attaches a trace to the context for StartSpan to find.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Span is one in-flight stage timing. The zero Span (no trace in the
// context) is a no-op, so instrumented code needs no conditionals.
type Span struct {
	t     *Trace
	name  string
	start time.Time
}

// StartSpan opens a stage span against the context's trace. Without a
// trace it returns the no-op zero Span and does not read the clock.
func StartSpan(ctx context.Context, name string) Span {
	t := TraceFrom(ctx)
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Now()}
}

// End closes the span, recording its duration in the trace (and its
// sink).
func (s Span) End() {
	if s.t != nil {
		s.t.Observe(s.name, time.Since(s.start))
	}
}
