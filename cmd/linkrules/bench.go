package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/similarity"
	"repro/internal/store"
)

// cmdBench runs the benchmark corpus end-to-end through the real
// service stack — durable store, resilience middleware, HTTP handlers,
// learner, link engine — and writes a machine-readable report with a
// stable schema ("linkrules-bench/1"). Committing one report per PR
// gives the repo a perf trajectory that regressions show up in:
//
//	upsert  corpus ingest through POST /v1/items/upsert (items/s)
//	learn   POST /v1/learn over the training links (wall seconds)
//	link    repeated POST /v1/link queries (p50/p99 latency, qps)
//	wal     append count/bytes/rate observed by the store instruments
//	ingest  the same corpus loaded one item per request vs one
//	        streaming bulk request, both at fsync=always (items/s
//	        each, and the speedup)
//
// The store lives in a throwaway directory; -fsync picks the WAL
// policy the mutation phases pay for. -smoke shrinks the corpus and
// iteration counts so CI can run the whole thing in seconds.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	out := fs.String("out", "-", "report file (- writes to stdout)")
	smoke := fs.Bool("smoke", false, "tiny corpus and few iterations, for CI smoke runs")
	queries := fs.Int("queries", 200, "timed link queries")
	batch := fs.Int("batch", 64, "items per upsert request")
	bulkBatch := fs.Int("bulk-batch", 1000, "items per batch commit in the ingest phase's bulk run")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy paid by the upsert/learn phases: never, interval or always (the ingest comparison always runs durable)")
	topK := fs.Int("top", 3, "matches requested per item in link queries")
	if err := parse(fs, args); err != nil {
		return err
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
		if *queries == 200 {
			*queries = 30
		}
	}
	mode, err := store.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	if *batch < 1 || *queries < 1 || *bulkBatch < 1 {
		return fmt.Errorf("-batch, -queries and -bulk-batch must be positive")
	}

	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: %s corpus, seed %d (SE %d, SL %d triples, |TS| %d)\n",
		cf.scale, cf.seed, ds.External.Len(), ds.Local.Len(), ds.Training.Len())

	dir, err := os.MkdirTemp("", "linkrules-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	sm := store.NewMetrics(reg)
	st, rec, err := store.Open(dir, store.Options{
		Fsync:         mode,
		SnapshotEvery: -1, // no auto-checkpoints: the WAL numbers stay pure append cost
		Metrics:       sm,
	})
	if err != nil {
		return err
	}
	// The external side starts empty: the upsert phase ingests the whole
	// external corpus through the HTTP handler, exactly like a client.
	seed := &service.Seed{External: datalink.NewGraph(), Local: ds.Local, Ontology: ds.Ontology}
	opts := service.Options{
		Learner:       datalink.LearnerConfig{SupportThreshold: cf.th},
		DefaultLinker: datalink.DefaultLinkingConfig(),
		Metrics:       reg,
	}
	svc, err := service.Restore(st, rec, seed, opts)
	if err != nil {
		st.Close()
		return err
	}
	defer svc.Close()
	h := svc.Handler()

	rep := benchReport{
		Schema:    "linkrules-bench/1",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Smoke:     *smoke,
		Corpus: benchCorpus{
			Scale:           cf.scale,
			Seed:            cf.seed,
			TrainingLinks:   ds.Training.Len(),
			ExternalItems:   len(ds.External.AllSubjects()),
			ExternalTriples: ds.External.Len(),
			LocalTriples:    ds.Local.Len(),
		},
	}

	// Phase 1: upsert throughput.
	specs := externalItemSpecs(ds.External)
	mutStart := time.Now()
	t0 := time.Now()
	batches := 0
	for i := 0; i < len(specs); i += *batch {
		end := min(i+*batch, len(specs))
		body, err := json.Marshal(map[string]any{"side": "external", "items": specs[i:end]})
		if err != nil {
			return err
		}
		if _, err := call(h, "POST", "/v1/items/upsert", body); err != nil {
			return fmt.Errorf("upsert batch %d: %w", batches, err)
		}
		batches++
	}
	upsertSec := time.Since(t0).Seconds()
	rep.Upsert = benchUpsert{
		Items:       len(specs),
		Batches:     batches,
		BatchSize:   *batch,
		Seconds:     upsertSec,
		ItemsPerSec: rate(float64(len(specs)), upsertSec),
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: upsert %d items in %d batches: %.3fs (%.0f items/s)\n",
		len(specs), batches, upsertSec, rep.Upsert.ItemsPerSec)

	// Phase 2: learn time.
	links := make([]map[string]string, 0, ds.Training.Len())
	for _, l := range ds.Training.Links {
		links = append(links, map[string]string{"external": l.External.Value, "local": l.Local.Value})
	}
	body, err := json.Marshal(map[string]any{"links": links})
	if err != nil {
		return err
	}
	t0 = time.Now()
	learnResp, err := call(h, "POST", "/v1/learn", body)
	if err != nil {
		return fmt.Errorf("learn: %w", err)
	}
	learnSec := time.Since(t0).Seconds()
	mutSec := time.Since(mutStart).Seconds()
	var learned struct {
		Rules int `json:"rules"`
	}
	if err := json.Unmarshal(learnResp, &learned); err != nil {
		return fmt.Errorf("learn response: %w", err)
	}
	rep.Learn = benchLearn{Links: len(links), Rules: learned.Rules, Seconds: learnSec}
	fmt.Fprintf(os.Stderr, "linkrules bench: learn %d links -> %d rules: %.3fs\n",
		len(links), learned.Rules, learnSec)

	// Phase 3: link query latency. Each query asks for a deterministic
	// slice of external items so runs are comparable across machines.
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	perQuery := min(16, len(ids))
	linkBodies := make([][]byte, *queries)
	for q := range linkBodies {
		items := make([]string, perQuery)
		for j := range items {
			items[j] = ids[(q*31+j*7)%len(ids)]
		}
		if linkBodies[q], err = json.Marshal(map[string]any{"items": items, "top_k": *topK}); err != nil {
			return err
		}
	}
	for w := 0; w < min(3, *queries); w++ { // warm the engine caches
		if _, err := call(h, "POST", "/v1/link", linkBodies[w]); err != nil {
			return fmt.Errorf("link warmup: %w", err)
		}
	}
	durs := make([]float64, *queries)
	t0 = time.Now()
	for q := range durs {
		q0 := time.Now()
		if _, err := call(h, "POST", "/v1/link", linkBodies[q]); err != nil {
			return fmt.Errorf("link query %d: %w", q, err)
		}
		durs[q] = time.Since(q0).Seconds() * 1e3
	}
	linkSec := time.Since(t0).Seconds()
	sort.Float64s(durs)
	rep.Link = benchLink{
		Queries:       *queries,
		ItemsPerQuery: perQuery,
		TopK:          *topK,
		P50Ms:         percentile(durs, 50),
		P99Ms:         percentile(durs, 99),
		MeanMs:        mean(durs),
		QPS:           rate(float64(*queries), linkSec),
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: %d link queries x %d items: p50 %.2fms p99 %.2fms (%.1f qps)\n",
		*queries, perQuery, rep.Link.P50Ms, rep.Link.P99Ms, rep.Link.QPS)

	// Phase 4: WAL append rate over the mutation phases, read from the
	// same instruments /metrics exports.
	rep.WAL = benchWAL{
		Fsync:         mode.String(),
		Appends:       sm.AppendsTotal.Value(),
		Bytes:         sm.AppendBytesTotal.Value(),
		Seconds:       mutSec,
		AppendsPerSec: rate(float64(sm.AppendsTotal.Value()), mutSec),
		MBPerSec:      rate(float64(sm.AppendBytesTotal.Value())/(1<<20), mutSec),
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: wal %d appends, %d bytes (fsync %s): %.0f appends/s\n",
		rep.WAL.Appends, rep.WAL.Bytes, rep.WAL.Fsync, rep.WAL.AppendsPerSec)

	// Phase 5: ingest path comparison — the same corpus loaded one item
	// per request vs one streaming bulk request, each into a fresh
	// throwaway service, so the speedup of the batched mutation path is
	// measured end to end. This phase always runs at fsync=always: the
	// batched WAL record exists to amortize the per-commit fsync, so the
	// durable policy is the configuration the comparison is about
	// (per-item pays one fsync per item, bulk one per batch).
	if rep.Ingest, err = benchIngestPhase(specs, store.FsyncAlways, *bulkBatch); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: ingest %d items: per-item %.0f items/s, bulk %.0f items/s (%d batches of %d) -> %.1fx\n",
		rep.Ingest.Items, rep.Ingest.PerItemPerSec, rep.Ingest.BulkPerSec,
		rep.Ingest.BulkBatches, rep.Ingest.BulkBatch, rep.Ingest.Speedup)

	// Phase 6: similarity kernel microbench — the bit-parallel edit
	// distance the link engine's hot loop now runs, against the plain DP
	// it replaced (kept as the reference oracle), over corpus-derived
	// value pairs.
	rep.Kernel = benchKernelPhase(specs, *smoke)
	fmt.Fprintf(os.Stderr, "linkrules bench: kernel %d pairs: lev %.0f ns/op vs dp %.0f (%.1fx), dam %.0f ns/op vs dp %.0f (%.1fx)\n",
		rep.Kernel.Pairs, rep.Kernel.LevNsPerOp, rep.Kernel.LevDPNsPerOp, rep.Kernel.LevSpeedup,
		rep.Kernel.DamNsPerOp, rep.Kernel.DamDPNsPerOp, rep.Kernel.DamSpeedup)
	fmt.Fprintf(os.Stderr, "linkrules bench: kernel bench pair: lev %.0f ns/op vs dp %.0f (%.1fx), dam %.0f ns/op vs dp %.0f (%.1fx)\n",
		rep.Kernel.BenchPairLevNs, rep.Kernel.BenchPairLevDPNs, rep.Kernel.BenchPairLevSpeedup,
		rep.Kernel.BenchPairDamNs, rep.Kernel.BenchPairDamDPNs, rep.Kernel.BenchPairDamSpeedup)

	// Phase 7: parallel learn — the same in-process Learn at Workers=1
	// vs Workers=NumCPU. The model is byte-identical either way; only
	// wall time may differ, and on a single-CPU host the speedup is
	// honestly ~1.0.
	if rep.LearnParallel, err = benchLearnParallelPhase(ds, cf.th); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: learn-parallel %d links: 1 worker %.3fs, %d workers %.3fs (%.2fx)\n",
		rep.LearnParallel.Links, rep.LearnParallel.SerialSeconds,
		rep.LearnParallel.Workers, rep.LearnParallel.ParallelSeconds, rep.LearnParallel.Speedup)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "linkrules bench: wrote %s\n", *out)
	return nil
}

// benchReport is the stable machine-readable schema. Only add fields;
// never rename or repurpose existing ones — downstream trajectory
// tooling compares reports across commits by key.
type benchReport struct {
	Schema    string      `json:"schema"`
	Timestamp string      `json:"timestamp"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	CPUs      int         `json:"cpus"`
	Smoke     bool        `json:"smoke"`
	Corpus    benchCorpus `json:"corpus"`
	Upsert    benchUpsert `json:"upsert"`
	Learn     benchLearn  `json:"learn"`
	Link      benchLink   `json:"link"`
	WAL       benchWAL    `json:"wal"`
	Ingest    benchIngest `json:"ingest"`
	// Kernel and LearnParallel were added with schema still at /1:
	// additions are allowed, renames are not.
	Kernel        benchKernel        `json:"kernel"`
	LearnParallel benchLearnParallel `json:"learn_parallel"`
}

type benchCorpus struct {
	Scale           string `json:"scale"`
	Seed            int64  `json:"seed"`
	TrainingLinks   int    `json:"training_links"`
	ExternalItems   int    `json:"external_items"`
	ExternalTriples int    `json:"external_triples"`
	LocalTriples    int    `json:"local_triples"`
}

type benchUpsert struct {
	Items       int     `json:"items"`
	Batches     int     `json:"batches"`
	BatchSize   int     `json:"batch_size"`
	Seconds     float64 `json:"seconds"`
	ItemsPerSec float64 `json:"items_per_sec"`
}

type benchLearn struct {
	Links   int     `json:"links"`
	Rules   int     `json:"rules"`
	Seconds float64 `json:"seconds"`
}

type benchLink struct {
	Queries       int     `json:"queries"`
	ItemsPerQuery int     `json:"items_per_query"`
	TopK          int     `json:"top_k"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	QPS           float64 `json:"qps"`
}

type benchWAL struct {
	Fsync         string  `json:"fsync"`
	Appends       uint64  `json:"appends"`
	Bytes         uint64  `json:"bytes"`
	Seconds       float64 `json:"seconds"`
	AppendsPerSec float64 `json:"appends_per_sec"`
	MBPerSec      float64 `json:"mb_per_sec"`
}

type benchIngest struct {
	Items          int     `json:"items"`
	Fsync          string  `json:"fsync"`
	PerItemSeconds float64 `json:"per_item_seconds"`
	PerItemPerSec  float64 `json:"per_item_items_per_sec"`
	BulkBatch      int     `json:"bulk_batch"`
	BulkBatches    int     `json:"bulk_batches"`
	BulkSeconds    float64 `json:"bulk_seconds"`
	BulkPerSec     float64 `json:"bulk_items_per_sec"`
	Speedup        float64 `json:"speedup"`
}

type benchKernel struct {
	Pairs        int     `json:"pairs"`
	Iters        int     `json:"iters"`
	LevNsPerOp   float64 `json:"lev_ns_per_op"`
	LevDPNsPerOp float64 `json:"lev_dp_ns_per_op"`
	LevSpeedup   float64 `json:"lev_speedup"`
	DamNsPerOp   float64 `json:"dam_ns_per_op"`
	DamDPNsPerOp float64 `json:"dam_dp_ns_per_op"`
	DamSpeedup   float64 `json:"dam_speedup"`
	// BenchPair* measure the canonical 16-char part-number pair of
	// BenchmarkLevenshtein/BenchmarkDamerau, so the report is directly
	// comparable to the historical ns/op trajectory of those benchmarks
	// (the corpus pairs above are shorter, which understates the
	// quadratic DP's cost and therefore the kernel's speedup).
	BenchPairLevNs      float64 `json:"bench_pair_lev_ns_per_op"`
	BenchPairLevDPNs    float64 `json:"bench_pair_lev_dp_ns_per_op"`
	BenchPairLevSpeedup float64 `json:"bench_pair_lev_speedup"`
	BenchPairDamNs      float64 `json:"bench_pair_dam_ns_per_op"`
	BenchPairDamDPNs    float64 `json:"bench_pair_dam_dp_ns_per_op"`
	BenchPairDamSpeedup float64 `json:"bench_pair_dam_speedup"`
}

type benchLearnParallel struct {
	Links           int     `json:"links"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
}

// kernelSink keeps the kernel loops observable so they cannot be
// optimized away.
var kernelSink int

// benchKernelPhase times the dispatching edit-distance entry points
// (bit-parallel for ASCII up to 64 chars, exactly what the link engine
// calls) against the retained reference DP, over deterministic pairs of
// real corpus values.
func benchKernelPhase(specs []benchItem, smoke bool) benchKernel {
	var vals []string
	for _, s := range specs {
		for _, vs := range s.Properties {
			vals = append(vals, vs...)
		}
	}
	sort.Strings(vals) // map-order independence
	if len(vals) > 2000 {
		vals = vals[:2000]
	}
	type pair struct{ a, b string }
	pairs := make([]pair, len(vals))
	for i, v := range vals {
		pairs[i] = pair{v, vals[(i*31+7)%len(vals)]}
	}
	iters := 50
	if smoke {
		iters = 5
	}
	nsPerOp := func(fn func(a, b string) int) float64 {
		sum := 0
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			for _, p := range pairs {
				sum += fn(p.a, p.b)
			}
		}
		sec := time.Since(t0).Seconds()
		kernelSink += sum
		return sec * 1e9 / float64(iters*len(pairs))
	}
	k := benchKernel{Pairs: len(pairs), Iters: iters}
	k.LevNsPerOp = nsPerOp(similarity.LevenshteinDistance)
	k.LevDPNsPerOp = nsPerOp(similarity.ReferenceLevenshteinDistance)
	k.DamNsPerOp = nsPerOp(similarity.DamerauDistance)
	k.DamDPNsPerOp = nsPerOp(similarity.ReferenceDamerauDistance)
	if k.LevNsPerOp > 0 {
		k.LevSpeedup = k.LevDPNsPerOp / k.LevNsPerOp
	}
	if k.DamNsPerOp > 0 {
		k.DamSpeedup = k.DamDPNsPerOp / k.DamNsPerOp
	}
	pairs = []pair{{"CRCW0805-63V-ohm", "CRCW0812/63V/ohm"}}
	iters *= 1000 // one pair instead of thousands: keep total ops comparable
	k.BenchPairLevNs = nsPerOp(similarity.LevenshteinDistance)
	k.BenchPairLevDPNs = nsPerOp(similarity.ReferenceLevenshteinDistance)
	k.BenchPairDamNs = nsPerOp(similarity.DamerauDistance)
	k.BenchPairDamDPNs = nsPerOp(similarity.ReferenceDamerauDistance)
	if k.BenchPairLevNs > 0 {
		k.BenchPairLevSpeedup = k.BenchPairLevDPNs / k.BenchPairLevNs
	}
	if k.BenchPairDamNs > 0 {
		k.BenchPairDamSpeedup = k.BenchPairDamDPNs / k.BenchPairDamNs
	}
	return k
}

// benchLearnParallelPhase runs the in-process learner twice over the
// generated corpus — serial, then with one worker per CPU — and reports
// both wall times. Byte-identical models are a tested invariant, so
// only the timing is recorded.
func benchLearnParallelPhase(ds *datalink.Dataset, th float64) (benchLearnParallel, error) {
	lp := benchLearnParallel{Links: ds.Training.Len(), Workers: runtime.NumCPU()}
	run := func(workers int) (float64, error) {
		cfg := datalink.LearnerConfig{SupportThreshold: th, Workers: workers}
		t0 := time.Now()
		_, err := datalink.LearnCtx(context.Background(), cfg, ds.Training, ds.External, ds.Local, ds.Ontology)
		return time.Since(t0).Seconds(), err
	}
	var err error
	if lp.SerialSeconds, err = run(1); err != nil {
		return lp, fmt.Errorf("learn-parallel serial: %w", err)
	}
	if lp.ParallelSeconds, err = run(lp.Workers); err != nil {
		return lp, fmt.Errorf("learn-parallel: %w", err)
	}
	if lp.ParallelSeconds > 0 {
		lp.Speedup = lp.SerialSeconds / lp.ParallelSeconds
	}
	return lp, nil
}

// benchIngestPhase loads the same items twice — one item per POST
// /v1/items/upsert (the pre-batch choke point), then one streaming POST
// /v1/items/bulk — each into a fresh service over its own throwaway
// store, so WAL frames, fsyncs and snapshot publishes are attributed
// cleanly to the path under test. All request bodies are rendered
// before the clocks start.
func benchIngestPhase(specs []benchItem, mode store.FsyncMode, bulkBatch int) (benchIngest, error) {
	ing := benchIngest{Items: len(specs), Fsync: mode.String(), BulkBatch: bulkBatch}

	perItemBodies := make([][]byte, len(specs))
	for i, s := range specs {
		body, err := json.Marshal(map[string]any{"side": "external", "items": []benchItem{s}})
		if err != nil {
			return ing, err
		}
		perItemBodies[i] = body
	}
	ndjson, err := ndjsonItems(specs)
	if err != nil {
		return ing, err
	}

	run := func(load func(h http.Handler) error) error {
		dir, err := os.MkdirTemp("", "linkrules-bench-ingest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, rec, err := store.Open(dir, store.Options{Fsync: mode, SnapshotEvery: -1})
		if err != nil {
			return err
		}
		ol, err := datalink.OntologyFromGraph(datalink.NewGraph())
		if err != nil {
			st.Close()
			return err
		}
		seed := &service.Seed{External: datalink.NewGraph(), Local: datalink.NewGraph(), Ontology: ol}
		svc, err := service.Restore(st, rec, seed, service.Options{})
		if err != nil {
			st.Close()
			return err
		}
		defer svc.Close()
		return load(svc.Handler())
	}

	if err := run(func(h http.Handler) error {
		t0 := time.Now()
		for i, body := range perItemBodies {
			if _, err := call(h, "POST", "/v1/items/upsert", body); err != nil {
				return fmt.Errorf("ingest per-item upsert %d: %w", i, err)
			}
		}
		ing.PerItemSeconds = time.Since(t0).Seconds()
		return nil
	}); err != nil {
		return ing, err
	}
	ing.PerItemPerSec = rate(float64(len(specs)), ing.PerItemSeconds)

	if err := run(func(h http.Handler) error {
		path := fmt.Sprintf("/v1/items/bulk?side=external&batch=%d", bulkBatch)
		t0 := time.Now()
		resp, err := call(h, "POST", path, ndjson)
		if err != nil {
			return fmt.Errorf("ingest bulk: %w", err)
		}
		ing.BulkSeconds = time.Since(t0).Seconds()
		var rep service.BulkReport
		if err := json.Unmarshal(resp, &rep); err != nil {
			return fmt.Errorf("ingest bulk report: %w", err)
		}
		if rep.Errors > 0 || rep.Upserted != len(specs) {
			return fmt.Errorf("ingest bulk applied %d/%d items with %d errors", rep.Upserted, len(specs), rep.Errors)
		}
		ing.BulkBatches = rep.Batches
		return nil
	}); err != nil {
		return ing, err
	}
	ing.BulkPerSec = rate(float64(len(specs)), ing.BulkSeconds)
	if ing.BulkSeconds > 0 {
		ing.Speedup = ing.PerItemSeconds / ing.BulkSeconds
	}
	return ing, nil
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

// call drives one request through the in-process handler and returns
// the response body, failing on any non-200 status.
func call(h http.Handler, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, "http://bench.invalid"+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rw := &benchRecorder{}
	h.ServeHTTP(rw, req)
	if rw.code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, rw.code, strings.TrimSpace(rw.body.String()))
	}
	return rw.body.Bytes(), nil
}

// benchRecorder is a minimal in-memory http.ResponseWriter; the bench
// intentionally skips the network stack so latencies are handler-only.
type benchRecorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (r *benchRecorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *benchRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
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
