// Package obs is a zero-dependency metrics subsystem: counters, gauges
// and fixed-bucket histograms behind a Registry that serves the
// Prometheus text exposition format (version 0.0.4).
//
// It is built for hot paths. Every observation — Counter.Inc,
// Gauge.Add, Histogram.Observe — is a handful of atomic operations with
// no locks, no allocation and no time lookup, so instrumentation can sit
// on the WAL append path or inside a scoring loop without moving the
// numbers it measures (BenchmarkObserve pins the cost). Label lookup
// (Vec.With) reads a sync.Map and is lock-free after first use, but
// hot-path callers should still resolve their children once, up front,
// and hold the returned instrument.
//
// All instruments are nil-safe: every method on a nil *Counter, *Gauge
// or *Histogram is a no-op, so optional instrumentation wires through
// without conditionals at the call sites.
//
// Registration is strict: invalid metric or label names, duplicate
// names, and malformed bucket layouts panic at registration time, which
// is construction time — never on the observe path.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; nil receivers are no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; nil receivers are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one linear scan over the (small, fixed) bound slice, two atomic adds
// and one CAS-loop float add. The zero value is NOT usable — histograms
// come from a Registry, which sets the buckets.
type Histogram struct {
	upper  []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since t0 — the idiom for
// latency histograms.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// atomicFloat is a float64 with a CAS add — uncontended it costs one
// load and one compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// DefBuckets is the default latency layout in seconds: 100µs to 10s,
// roughly logarithmic. Suits request and stage durations.
func DefBuckets() []float64 {
	return []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// FastBuckets is a latency layout for sub-millisecond operations (WAL
// appends, fsyncs): 10µs to 1s.
func FastBuckets() []float64 {
	return []float64{.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, 1}
}

// SizeBuckets is a byte-size layout: 256B to 16MiB, powers of four.
func SizeBuckets() []float64 {
	return []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
}

// metricType is the TYPE line value.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// child is one labeled instrument of a family. Exactly one of c/g/h is
// set, matching the family's type.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with its children (one per label-value
// combination; a single unlabeled child for scalar metrics).
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64

	// children maps joined label values to *child. Reads (the Vec.With
	// fast path) are lock-free; mu serializes creation only.
	children sync.Map
	mu       sync.Mutex

	// fn, when set, makes this a function-sourced scalar read at scrape
	// time (CounterFunc/GaugeFunc) — for values owned by existing state
	// that must never disagree with it.
	fn func() float64
	// hfn, when set, makes this a function-sourced histogram read at
	// scrape time (HistogramFunc) — for pre-bucketed distributions like
	// runtime/metrics GC pause histograms.
	hfn func() HistogramSnapshot
}

// get returns the child for the given label values, creating it on
// first use.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	if v, ok := f.children.Load(key); ok {
		return v.(*child)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.children.Load(key); ok {
		return v.(*child)
	}
	ch := &child{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		ch.c = &Counter{}
	case typeGauge:
		ch.g = &Gauge{}
	case typeHistogram:
		ch.h = &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.children.Store(key, ch)
	return ch
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Hot paths should call With once and hold the counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration methods panic on invalid or
// duplicate names — misregistration is a programming error caught at
// construction time. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a new family.
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	if typ == typeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %s has no buckets", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing at %d", name, i))
			}
		}
		for _, l := range labels {
			if l == "le" {
				panic(fmt.Sprintf("obs: histogram %s reserves the %q label", name, "le"))
			}
		}
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.families[name] = f
	return f
}

// Counter registers a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).get(nil).c
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).get(nil).g
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// Histogram registers a scalar histogram over the given bucket bounds
// (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, buckets).get(nil).h
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, buckets)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. Use it for values owned by existing state (store stats, live
// config) so the metric and its JSON twin can never disagree.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil).fn = fn
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonic — the Registry trusts it.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil).fn = fn
}

// HistogramBucket is one cumulative bucket of a HistogramSnapshot:
// Count observations at or below Upper.
type HistogramBucket struct {
	Upper float64
	Count uint64
}

// HistogramSnapshot is a point-in-time cumulative histogram, as
// returned by a HistogramFunc source. Buckets must be sorted by Upper
// with non-decreasing counts; Count is the total observation count and
// Sum the (possibly estimated) sum of observed values.
type HistogramSnapshot struct {
	Buckets []HistogramBucket
	Sum     float64
	Count   uint64
}

// HistogramFunc registers a histogram whose full bucket layout and
// counts are read from fn at scrape time. Use it for distributions
// maintained elsewhere with their own bucketing — e.g. runtime/metrics
// GC pause and scheduler latency histograms — where re-observing into a
// push histogram would lose or distort the source's resolution.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	// The placeholder bucket satisfies registration validation; rendering
	// uses the snapshot's own bounds.
	r.register(name, help, typeHistogram, nil, []float64{math.Inf(1)}).hfn = fn
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and children by label values, so output is
// deterministic for a quiesced registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP makes the Registry a scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// write renders one family.
func (f *family) write(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(string(f.typ))
	b.WriteByte('\n')

	if f.fn != nil {
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(f.fn()))
		b.WriteByte('\n')
		return
	}
	if f.hfn != nil {
		snap := f.hfn()
		last := math.Inf(-1)
		infSeen := false
		for _, bk := range snap.Buckets {
			if bk.Upper <= last {
				continue // defend against out-of-order source buckets
			}
			last = bk.Upper
			if math.IsInf(bk.Upper, 1) {
				infSeen = true
				// +Inf must equal _count for a well-formed histogram.
				writeSample(b, f.name+"_bucket", nil, nil, "le", "+Inf", strconv.FormatUint(snap.Count, 10))
				break
			}
			writeSample(b, f.name+"_bucket", nil, nil, "le", formatFloat(bk.Upper), strconv.FormatUint(bk.Count, 10))
		}
		if !infSeen {
			writeSample(b, f.name+"_bucket", nil, nil, "le", "+Inf", strconv.FormatUint(snap.Count, 10))
		}
		writeSample(b, f.name+"_sum", nil, nil, "", "", formatFloat(snap.Sum))
		writeSample(b, f.name+"_count", nil, nil, "", "", strconv.FormatUint(snap.Count, 10))
		return
	}

	var children []*child
	f.children.Range(func(_, v any) bool {
		children = append(children, v.(*child))
		return true
	})
	sort.Slice(children, func(i, j int) bool {
		a, c := children[i].values, children[j].values
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})
	for _, ch := range children {
		switch f.typ {
		case typeCounter:
			writeSample(b, f.name, f.labels, ch.values, "", "", strconv.FormatUint(ch.c.Value(), 10))
		case typeGauge:
			writeSample(b, f.name, f.labels, ch.values, "", "", strconv.FormatInt(ch.g.Value(), 10))
		case typeHistogram:
			// Cumulative buckets: each le bound counts everything at or
			// below it; +Inf equals _count.
			cum := uint64(0)
			for i, bound := range ch.h.upper {
				cum += ch.h.counts[i].Load()
				writeSample(b, f.name+"_bucket", f.labels, ch.values, "le", formatFloat(bound), strconv.FormatUint(cum, 10))
			}
			cum += ch.h.counts[len(ch.h.upper)].Load()
			writeSample(b, f.name+"_bucket", f.labels, ch.values, "le", "+Inf", strconv.FormatUint(cum, 10))
			writeSample(b, f.name+"_sum", f.labels, ch.values, "", "", formatFloat(ch.h.Sum()))
			writeSample(b, f.name+"_count", f.labels, ch.values, "", "", strconv.FormatUint(ch.h.Count(), 10))
		}
	}
}

// writeSample renders one sample line, appending an optional extra
// label (the histogram "le").
func writeSample(b *strings.Builder, name string, labels, values []string, extraName, extraValue, sample string) {
	b.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(sample)
	b.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
