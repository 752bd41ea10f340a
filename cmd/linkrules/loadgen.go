package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	datalink "repro"
	"repro/internal/obs"
)

// cmdLoadgen drives a running linking service over HTTP with a sustained
// mixed workload at a target request rate and reports whether it held
// its latency SLO: link queries, item re-upserts and full relearns
// arriving together, the way production traffic does. It is a plain
// client of `serve` (-addr is required); the in-process stack is
// measured by the repository benchmark, linkbench.
//
// The harness scrapes the server's /metrics before and after the run
// and diffs the two scrapes, so the report carries both sides of the
// story: client-observed latency (sampled from each request's scheduled
// start, so queueing delay is included — no coordinated omission) and
// the server's own histogram and counter deltas over exactly the load
// window.
//
// The report ("linkrules-loadgen/1", stable schema: only add fields)
// is a deployment's SLO record; -slo-p99 turns it into a gate — the
// exit status is non-zero when the link p99 misses the target.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cf := addShapeFlags(fs)
	addr := fs.String("addr", "", "running service to drive, HOST:PORT or URL (required)")
	qps := fs.Float64("qps", 10, "target request rate (open loop)")
	duration := fs.Duration("duration", 15*time.Second, "load window length")
	workers := fs.Int("workers", 4, "concurrent client workers")
	mixFlag := fs.String("mix", "link=90,upsert=9,learn=1", "op mix weights: link=N,upsert=N,learn=N")
	topK := fs.Int("top", 3, "matches requested per item in link queries")
	perQuery := fs.Int("items-per-query", 4, "external items per link query")
	sloP99 := fs.Float64("slo-p99", 0, "fail (exit non-zero) unless link p99 latency <= this many ms (0: report only)")
	out := fs.String("out", "-", "report file (- writes to stdout)")
	smoke := fs.Bool("smoke", false, "tiny corpus and short window, for CI smoke runs")
	apiKey := fs.String("api-key", "", "X-API-Key header sent with every request")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required: start a service with `linkrules serve` and pass its HOST:PORT")
	}
	if *smoke {
		if cf.scale == "paper" {
			cf.scale = "small"
		}
		if cf.links == 0 {
			cf.links = 150
		}
		if cf.catalog == 0 {
			cf.catalog = 500
		}
		if *duration == 15*time.Second {
			*duration = 2 * time.Second
		}
		if *qps == 10 {
			*qps = 20
		}
		if *workers == 4 {
			*workers = 2
		}
	}
	if *qps <= 0 || *duration <= 0 || *workers < 1 || *perQuery < 1 {
		return fmt.Errorf("-qps, -duration, -workers and -items-per-query must be positive")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}

	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	specs := externalItemSpecs(ds.External)
	if len(specs) == 0 {
		return fmt.Errorf("corpus has no external items")
	}
	fmt.Fprintf(os.Stderr, "linkrules loadgen: %s corpus, seed %d (%d external items, |TS| %d)\n",
		cf.scale, cf.seed, len(specs), ds.Training.Len())

	target := newHTTPTarget(*addr, *apiKey)
	defer target.close()
	if err := warmTarget(target, specs, ds); err != nil {
		return err
	}

	work, err := buildWorkload(specs, ds, *perQuery, *topK)
	if err != nil {
		return err
	}

	before, err := target.scrape()
	if err != nil {
		return fmt.Errorf("pre-run scrape: %v", err)
	}

	results := runLoad(target, work, mix, *qps, *duration, *workers, cf.seed)

	after, err := target.scrape()
	if err != nil {
		return fmt.Errorf("post-run scrape: %v", err)
	}

	rep := loadgenReport{
		Schema:    "linkrules-loadgen/1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Smoke:     *smoke,
		Build:     obs.Build(),
		Target:    loadgenTarget{Mode: "http", Addr: *addr},
		Workload: loadgenWorkload{
			TargetQPS:     *qps,
			DurationSec:   duration.Seconds(),
			Workers:       *workers,
			Mix:           mix,
			ItemsPerQuery: *perQuery,
			TopK:          *topK,
			Seed:          cf.seed,
		},
		Corpus: benchCorpus{
			Scale:           cf.scale,
			Seed:            cf.seed,
			TrainingLinks:   ds.Training.Len(),
			ExternalItems:   len(specs),
			ExternalTriples: ds.External.Len(),
			LocalTriples:    ds.Local.Len(),
		},
		Client: summarizeClient(results, *duration),
		Server: summarizeServer(before, after),
	}
	linkP99 := rep.Client.PerOp["link"].P99Ms
	if *sloP99 > 0 {
		rep.SLO = &loadgenSLO{TargetP99Ms: *sloP99, LinkP99Ms: linkP99, Pass: linkP99 <= *sloP99}
	}
	fmt.Fprintf(os.Stderr,
		"linkrules loadgen: %d requests in %.1fs (%.1f qps of %.1f target): link p50 %.2fms p99 %.2fms, %d rejected, %d errors\n",
		rep.Client.Requests, duration.Seconds(), rep.Client.AchievedQPS, *qps,
		rep.Client.PerOp["link"].P50Ms, linkP99, rep.Client.Rejected429, rep.Client.Errors5xx+rep.Client.TransportErrors)
	if !rep.Server.ScrapeLintClean {
		fmt.Fprintln(os.Stderr, "linkrules loadgen: WARNING: post-run /metrics scrape is not lint-clean")
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "linkrules loadgen: wrote %s\n", *out)
	}
	if rep.SLO != nil && !rep.SLO.Pass {
		return fmt.Errorf("SLO failed: link p99 %.2fms > target %.2fms", linkP99, *sloP99)
	}
	return nil
}

// parseMix parses "link=90,upsert=9,learn=1" into weights. Unknown ops
// and all-zero mixes are rejected.
func parseMix(s string) (map[string]int, error) {
	mix := map[string]int{}
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("bad -mix entry %q (want op=weight)", part)
		}
		switch name {
		case "link", "upsert", "learn":
		default:
			return nil, fmt.Errorf("unknown op %q in -mix (want link, upsert or learn)", name)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight %q for op %q", weight, name)
		}
		mix[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix has no positive weights")
	}
	return mix, nil
}

// httpTarget drives a running server. do never fails on HTTP-level
// errors — the status code is the measurement; err is transport-only.
// Responses are drained so keep-alive connections get reused — the
// client must not become the bottleneck it is measuring.
type httpTarget struct {
	base string
	key  string
	c    *http.Client
}

// newHTTPTarget resolves -addr: a bare HOST:PORT gets an http:// scheme.
func newHTTPTarget(addr, apiKey string) *httpTarget {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &httpTarget{
		base: strings.TrimSuffix(base, "/"),
		key:  apiKey,
		c:    &http.Client{Timeout: 2 * time.Minute},
	}
}

func (t *httpTarget) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, t.base+path, strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t.key != "" {
		req.Header.Set("X-API-Key", t.key)
	}
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

func (t *httpTarget) scrape() (string, error) {
	code, body, err := t.do("GET", "/metrics", nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("scrape: status %d", code)
	}
	return string(body), nil
}

func (t *httpTarget) close() { t.c.CloseIdleConnections() }

// warmTarget makes sure the target can answer link queries: if its
// status says no corpus or no model, the corpus is upserted and learned
// through the API. An already-seeded server is left untouched — it is
// assumed to hold the same corpus (start `serve` with the same corpus
// flags).
func warmTarget(target *httpTarget, specs []benchItem, ds *datalink.Dataset) error {
	code, body, err := target.do("GET", "/v1/status", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("target status: %d %v", code, err)
	}
	var status struct {
		ExternalTriples int  `json:"external_triples"`
		Learned         bool `json:"learned"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return fmt.Errorf("target status: %v", err)
	}
	if status.ExternalTriples == 0 {
		fmt.Fprintf(os.Stderr, "linkrules loadgen: target is empty, bulk-ingesting %d items\n", len(specs))
		// One streaming bulk request; the server chunks it into batch
		// commits itself. (NDJSON is the bulk endpoint's default format,
		// so the target's application/json content type is fine.)
		b, err := ndjsonItems(specs)
		if err != nil {
			return err
		}
		if code, resp, err := target.do("POST", "/v1/items/bulk?side=external", b); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm bulk ingest: %d %s %v", code, resp, err)
		}
	}
	if !status.Learned {
		fmt.Fprintln(os.Stderr, "linkrules loadgen: target has no model, learning")
		b, err := learnOpBody(ds)
		if err != nil {
			return err
		}
		if code, resp, err := target.do("POST", "/v1/learn", b); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm learn: %d %s %v", code, resp, err)
		}
	}
	return nil
}

// lgWorkload holds the pre-marshaled request bodies. Everything is
// built before the clock starts so the load loop does no JSON encoding.
type lgWorkload struct {
	linkBodies   [][]byte // rotated deterministically
	upsertBodies [][]byte // idempotent re-upserts of existing items
	learnBody    []byte   // full training set with replace:true
}

func buildWorkload(specs []benchItem, ds *datalink.Dataset, perQuery, topK int) (*lgWorkload, error) {
	w := &lgWorkload{}
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	n := min(perQuery, len(ids))
	for q := 0; q < 64; q++ {
		items := make([]string, n)
		for j := range items {
			items[j] = ids[(q*31+j*7)%len(ids)]
		}
		b, err := json.Marshal(map[string]any{"items": items, "top_k": topK})
		if err != nil {
			return nil, err
		}
		w.linkBodies = append(w.linkBodies, b)
	}
	const batch = 8
	for i := 0; i < len(specs) && len(w.upsertBodies) < 32; i += batch {
		end := min(i+batch, len(specs))
		b, err := json.Marshal(map[string]any{"side": "external", "items": specs[i:end]})
		if err != nil {
			return nil, err
		}
		w.upsertBodies = append(w.upsertBodies, b)
	}
	var err error
	if w.learnBody, err = learnOpBody(ds); err != nil {
		return nil, err
	}
	return w, nil
}

// learnOpBody marshals the full training set as a replace-learn: the
// op is idempotent, so any number of them during the run converges to
// the same model.
func learnOpBody(ds *datalink.Dataset) ([]byte, error) {
	links := make([]map[string]string, 0, ds.Training.Len())
	for _, l := range ds.Training.Links {
		links = append(links, map[string]string{"external": l.External.Value, "local": l.Local.Value})
	}
	return json.Marshal(map[string]any{"links": links, "replace": true})
}

// lgOp is one scheduled request; due is its open-loop dispatch slot.
type lgOp struct {
	kind string
	body []byte
	due  time.Time
}

// lgResult is one completed request: latency is measured from the op's
// scheduled slot, not from when a worker got to it, so a stalled server
// shows up as tail latency instead of silently lowering the rate
// (coordinated omission).
type lgResult struct {
	kind         string
	status       int
	ms           float64
	transportErr bool
}

// runLoad dispatches ops open-loop at the target rate for the window
// and returns every completed request. The op sequence is drawn from a
// seeded PCG, so two runs with the same seed issue the identical
// request stream.
func runLoad(target *httpTarget, work *lgWorkload, mix map[string]int, qps float64, duration time.Duration, workers int, seed int64) []lgResult {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	order := []string{"link", "upsert", "learn"}
	total := 0
	for _, op := range order {
		total += mix[op]
	}
	pick := func() string {
		r := rng.IntN(total)
		for _, op := range order {
			if r < mix[op] {
				return op
			}
			r -= mix[op]
		}
		return "link"
	}
	counters := map[string]int{}
	bodyFor := func(kind string) []byte {
		i := counters[kind]
		counters[kind]++
		switch kind {
		case "link":
			return work.linkBodies[i%len(work.linkBodies)]
		case "upsert":
			return work.upsertBodies[i%len(work.upsertBodies)]
		default:
			return work.learnBody
		}
	}
	pathFor := func(kind string) string {
		switch kind {
		case "link":
			return "/v1/link"
		case "upsert":
			return "/v1/items/upsert"
		default:
			return "/v1/learn"
		}
	}

	ch := make(chan lgOp, workers*4)
	go func() {
		defer close(ch)
		interval := time.Duration(float64(time.Second) / qps)
		next := time.Now()
		deadline := next.Add(duration)
		for {
			if time.Now().After(deadline) {
				return
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			kind := pick()
			ch <- lgOp{kind: kind, body: bodyFor(kind), due: next}
			next = next.Add(interval)
		}
	}()

	perWorker := make([][]lgResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := range ch {
				status, _, err := target.do("POST", pathFor(op.kind), op.body)
				perWorker[w] = append(perWorker[w], lgResult{
					kind:         op.kind,
					status:       status,
					ms:           time.Since(op.due).Seconds() * 1e3,
					transportErr: err != nil,
				})
			}
		}(w)
	}
	wg.Wait()

	var all []lgResult
	for _, rs := range perWorker {
		all = append(all, rs...)
	}
	return all
}

// summarizeClient folds the raw results into the report's client block.
func summarizeClient(results []lgResult, duration time.Duration) loadgenClient {
	c := loadgenClient{PerOp: map[string]loadgenOpStats{}}
	byOp := map[string][]float64{}
	var allMs []float64
	for _, r := range results {
		c.Requests++
		switch {
		case r.transportErr:
			c.TransportErrors++
		case r.status == http.StatusOK:
			c.OK++
		case r.status == http.StatusTooManyRequests:
			c.Rejected429++
		case r.status >= 500:
			c.Errors5xx++
		default:
			c.Errors4xx++
		}
		allMs = append(allMs, r.ms)
		if !r.transportErr && r.status == http.StatusOK {
			byOp[r.kind] = append(byOp[r.kind], r.ms)
		}
		op := c.PerOp[r.kind]
		op.Requests++
		if !r.transportErr && r.status == http.StatusOK {
			op.OK++
		}
		c.PerOp[r.kind] = op
	}
	sort.Float64s(allMs)
	c.AchievedQPS = rate(float64(c.Requests), duration.Seconds())
	c.P50Ms = percentile(allMs, 50)
	c.P95Ms = percentile(allMs, 95)
	c.P99Ms = percentile(allMs, 99)
	c.MeanMs = mean(allMs)
	if n := len(allMs); n > 0 {
		c.MaxMs = allMs[n-1]
	}
	for kind, ms := range byOp {
		sort.Float64s(ms)
		op := c.PerOp[kind]
		op.P50Ms = percentile(ms, 50)
		op.P99Ms = percentile(ms, 99)
		op.MeanMs = mean(ms)
		c.PerOp[kind] = op
	}
	return c
}

// summarizeServer diffs the pre/post scrapes into the report's server
// block: request and stage counter deltas over the window, the server's
// own /v1/link latency quantiles estimated from its histogram buckets,
// runtime signals, and whether the exposition stayed lint-clean with
// all collectors registered.
func summarizeServer(before, after string) loadgenServer {
	s := loadgenServer{
		RequestsTotal: map[string]float64{},
		Stages:        map[string]loadgenStage{},
	}
	s.ScrapeLintClean = obs.Lint(after) == nil
	bs, errB := obs.ParseText(before)
	as, errA := obs.ParseText(after)
	if errB != nil || errA != nil {
		s.ScrapeParseError = fmt.Sprintf("%v %v", errB, errA)
		return s
	}
	prev := map[string]float64{}
	for _, sv := range bs {
		prev[sv.Key()] = sv.Value
	}
	delta := func(sv obs.SampleValue) float64 { return sv.Value - prev[sv.Key()] }

	var linkBuckets []histBucket
	for _, sv := range as {
		switch sv.Name {
		case "linkrules_http_requests_total":
			if d := delta(sv); d > 0 {
				s.RequestsTotal[sv.Labels["path"]+" "+sv.Labels["code"]] = d
			}
		case "linkrules_stage_seconds_count":
			st := s.Stages[sv.Labels["stage"]]
			st.Count = delta(sv)
			s.Stages[sv.Labels["stage"]] = st
		case "linkrules_stage_seconds_sum":
			st := s.Stages[sv.Labels["stage"]]
			st.SumSeconds = delta(sv)
			s.Stages[sv.Labels["stage"]] = st
		case "linkrules_http_request_seconds_bucket":
			if sv.Labels["path"] == "/v1/link" {
				le, err := parseLE(sv.Labels["le"])
				if err == nil {
					linkBuckets = append(linkBuckets, histBucket{le: le, count: delta(sv)})
				}
			}
		case "go_goroutines":
			s.GoroutinesAfter = sv.Value
		case "go_gc_cycles_total":
			s.GCCyclesDelta = delta(sv)
		}
	}
	for stage, st := range s.Stages {
		if st.Count == 0 && st.SumSeconds == 0 {
			delete(s.Stages, stage)
		}
	}
	sort.Slice(linkBuckets, func(i, j int) bool { return linkBuckets[i].le < linkBuckets[j].le })
	s.LinkP50Ms = histQuantile(0.50, linkBuckets) * 1e3
	s.LinkP99Ms = histQuantile(0.99, linkBuckets) * 1e3
	return s
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// histBucket is one cumulative bucket delta (le upper bound, count).
type histBucket struct{ le, count float64 }

// histQuantile estimates a quantile from cumulative bucket deltas by
// linear interpolation inside the bucket holding the target rank — the
// standard Prometheus histogram_quantile estimate. Returns 0 with no
// observations; the +Inf bucket clamps to the highest finite bound.
func histQuantile(q float64, buckets []histBucket) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	lower, lowerCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower
			}
			width := b.le - lower
			inBucket := b.count - lowerCount
			if inBucket <= 0 {
				return b.le
			}
			return lower + width*(rank-lowerCount)/inBucket
		}
		if !math.IsInf(b.le, 1) {
			lower = b.le
		}
		lowerCount = b.count
	}
	return lower
}

// loadgenReport is the stable machine-readable schema
// ("linkrules-loadgen/1"). Only add fields; never rename or repurpose
// existing ones — trajectory tooling compares reports across commits.
type loadgenReport struct {
	Schema    string          `json:"schema"`
	Timestamp string          `json:"timestamp"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	CPUs      int             `json:"cpus"`
	Smoke     bool            `json:"smoke"`
	Build     obs.BuildInfo   `json:"build"`
	Target    loadgenTarget   `json:"target"`
	Workload  loadgenWorkload `json:"workload"`
	Corpus    benchCorpus     `json:"corpus"`
	Client    loadgenClient   `json:"client"`
	Server    loadgenServer   `json:"server"`
	SLO       *loadgenSLO     `json:"slo,omitempty"`
}

type loadgenTarget struct {
	Mode string `json:"mode"` // always "http"
	Addr string `json:"addr,omitempty"`
}

type loadgenWorkload struct {
	TargetQPS     float64        `json:"target_qps"`
	DurationSec   float64        `json:"duration_sec"`
	Workers       int            `json:"workers"`
	Mix           map[string]int `json:"mix"`
	ItemsPerQuery int            `json:"items_per_query"`
	TopK          int            `json:"top_k"`
	Seed          int64          `json:"seed"`
}

// loadgenClient is the client-observed view. Latencies are milliseconds
// from each op's scheduled dispatch slot to completion (queueing
// included), over all requests; per-op quantiles cover OK responses.
type loadgenClient struct {
	Requests        int                       `json:"requests"`
	OK              int                       `json:"ok"`
	Rejected429     int                       `json:"rejected_429"`
	Errors4xx       int                       `json:"errors_4xx"`
	Errors5xx       int                       `json:"errors_5xx"`
	TransportErrors int                       `json:"transport_errors"`
	AchievedQPS     float64                   `json:"achieved_qps"`
	P50Ms           float64                   `json:"p50_ms"`
	P95Ms           float64                   `json:"p95_ms"`
	P99Ms           float64                   `json:"p99_ms"`
	MeanMs          float64                   `json:"mean_ms"`
	MaxMs           float64                   `json:"max_ms"`
	PerOp           map[string]loadgenOpStats `json:"per_op"`
}

type loadgenOpStats struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// loadgenServer is the server's own view of the window, diffed from the
// pre/post /metrics scrapes.
type loadgenServer struct {
	RequestsTotal    map[string]float64      `json:"requests_total"` // "path code" -> delta
	Stages           map[string]loadgenStage `json:"stage_seconds"`
	LinkP50Ms        float64                 `json:"link_p50_ms"` // histogram estimate
	LinkP99Ms        float64                 `json:"link_p99_ms"`
	GoroutinesAfter  float64                 `json:"goroutines_after"`
	GCCyclesDelta    float64                 `json:"gc_cycles_delta"`
	ScrapeLintClean  bool                    `json:"scrape_lint_clean"`
	ScrapeParseError string                  `json:"scrape_parse_error,omitempty"`
}

type loadgenStage struct {
	Count      float64 `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
}

type loadgenSLO struct {
	TargetP99Ms float64 `json:"target_p99_ms"`
	LinkP99Ms   float64 `json:"link_p99_ms"`
	Pass        bool    `json:"pass"`
}

type benchCorpus struct {
	Scale           string `json:"scale"`
	Seed            int64  `json:"seed"`
	TrainingLinks   int    `json:"training_links"`
	ExternalItems   int    `json:"external_items"`
	ExternalTriples int    `json:"external_triples"`
	LocalTriples    int    `json:"local_triples"`
}

// benchItem mirrors the upsert wire format.
type benchItem struct {
	ID         string              `json:"id"`
	Properties map[string][]string `json:"properties"`
}

// externalItemSpecs converts the generated external graph into upsert
// payloads: one spec per subject carrying its literal properties,
// sorted so the ingest order is deterministic.
func externalItemSpecs(g *datalink.Graph) []benchItem {
	subjects := g.AllSubjects()
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].Compare(subjects[j]) < 0 })
	specs := make([]benchItem, 0, len(subjects))
	for _, s := range subjects {
		props := map[string][]string{}
		for _, tr := range g.Find(s, datalink.Term{}, datalink.Term{}) {
			if tr.O.IsLiteral() {
				props[tr.P.Value] = append(props[tr.P.Value], tr.O.Value)
			}
		}
		if len(props) == 0 {
			continue
		}
		specs = append(specs, benchItem{ID: s.Value, Properties: props})
	}
	return specs
}

// ndjsonItems renders specs as an NDJSON bulk body, one item per line.
func ndjsonItems(specs []benchItem) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// percentile returns the p-th percentile of sorted samples using
// nearest-rank.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rate divides guarding against a zero interval.
func rate(n, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return n / sec
}
