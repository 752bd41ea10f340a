package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	datalink "repro"
	"repro/internal/core"
	"repro/internal/linkage"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

// Traced-run sizes.
const (
	replayItems = 32 // quality-set items replayed layer by layer
	layerReps   = 3  // repetitions of each write-path layer call
	levPairs    = 64 // candidate values per item for the kernel timing
)

// unattributedTolerancePct bounds trace.unattributed_pct on link_serve.
// Beyond it the layer calls no longer explain the handler's time, and
// the run says so on standard error.
const unattributedTolerancePct = 25.0

// record runs fn inside a span and returns the span's index.
func (b *bench) record(name string, parent int, req string, fn func()) int {
	i := len(b.spans)
	b.spans = append(b.spans, span{Name: name, Parent: parent, Req: req, Start: time.Now().UnixNano()})
	fn()
	b.spans[i].End = time.Now().UnixNano()
	return i
}

// linkReplay is one item's replay: the handler call, the benchmark
// pipeline's QueryView.LinkTopK, and the four public calls LinkTopK
// makes, one by one.
type linkReplay struct {
	handler, view, calls, classify, space, cands, topk int // span indexes
	fired, candidates, passed                          int
	locs                                               []datalink.Term
}

// layers runs the traced run's layer-by-layer measurements on the
// stack left after the window and the benchmark-built oracle, and
// computes every per-layer metric.
func (b *bench) layers(s *stack, o *oracle) ([]metric, error) {
	ds := b.in.ds
	ctx := context.Background()
	view := o.pipe.Snapshot()
	se, ix := view.External(), view.Instances()
	cls := o.pipe.Classifier

	runtime.GC()
	reps := make([]linkReplay, 0, replayItems)
	spans0 := len(b.spans)
	for _, l := range b.in.quality[:replayItems] {
		item, req := l.External, l.External.Value
		var r linkReplay
		b.record("link.replay", -1, req, func() {
			root := len(b.spans) - 1
			r.handler = b.record("service.link", root, req, func() { b.do(s.h, "/v1/link", linkBody(req)) })
			r.view = b.record("datalink.LinkTopK", root, req, func() {
				if _, err := view.LinkTopK(ctx, []datalink.Term{item}, o.cfg, topK); err != nil {
					b.fail("replay LinkTopK %s: %v", req, err)
				}
			})
			r.calls = len(b.spans)
			b.record("datalink.calls", root, req, func() {
				var preds []datalink.Prediction
				var sr datalink.SpaceReport
				var pairs [][2]datalink.Term
				r.classify = b.record("core.Classify", r.calls, req, func() { preds = cls.Classify(item, se) })
				r.space = b.record("core.Space", r.calls, req, func() { sr = core.Space(item, preds, ix) })
				r.cands = b.record("core.CandidatePairs", r.calls, req, func() { pairs = core.CandidatePairs(sr, ix) })
				r.locs = make([]datalink.Term, len(pairs))
				for i, p := range pairs {
					r.locs[i] = p[1]
				}
				var ms []datalink.Match
				r.topk = b.record("linkage.TopK", r.calls, req, func() { ms = o.eng.TopK(item, r.locs, 0) })
				r.fired, r.candidates, r.passed = len(preds), len(pairs), len(ms)
			})
		})
		reps = append(reps, r)
	}
	self := selfTimes(b.spans)

	n := float64(len(reps))
	spansPerItem := float64(len(b.spans)-spans0) / n
	var sumH, sumLeaves, cands, passed, fired, noRule float64
	var tClassify, tSpace, tCands, tTopK float64
	var svcSelf, dlSelf []float64
	for _, r := range reps {
		h, v, c := b.spans[r.handler].dur(), b.spans[r.view].dur(), b.spans[r.calls].dur()
		leaves := float64(c - self[r.calls])
		sumH += float64(h)
		sumLeaves += leaves
		svcSelf = append(svcSelf, float64(h-v)/1e6)
		dlSelf = append(dlSelf, (float64(v)-leaves)/1e6)
		tClassify += float64(b.spans[r.classify].dur())
		tSpace += float64(b.spans[r.space].dur())
		tCands += float64(b.spans[r.cands].dur())
		tTopK += float64(b.spans[r.topk].dur())
		cands += float64(r.candidates)
		passed += float64(r.passed)
		fired += float64(r.fired)
		if r.fired == 0 {
			noRule++
		}
	}
	levNs := b.levNs(reps)

	// Write and recovery layers, each timed alone on the benchmark's
	// own copies of the inputs.
	var learnS, ixS, engS, encS, decS []float64
	var encoded [2][]byte
	for rep := 0; rep < layerReps; rep++ {
		runtime.GC()
		var m *datalink.Model
		var err error
		learnS = append(learnS, b.timed("core.learn", func() {
			m, err = datalink.LearnCtx(ctx, datalink.LearnerConfig{}, datalink.TrainingSet{Links: b.in.train}, ds.External, ds.Local, ds.Ontology)
		}))
		if err != nil {
			return nil, fmt.Errorf("traced learn: %w", err)
		}
		runtime.GC()
		ixS = append(ixS, b.timed("core.instance_index", func() {
			datalink.NewInstanceIndex(ds.Local, ds.Ontology).Freeze(ruleClasses(m))
		}))
		runtime.GC()
		engS = append(engS, b.timed("linkage.New", func() {
			_, err = linkage.New(o.cfg, ds.External, ds.Local)
		}))
		if err != nil {
			return nil, err
		}
		runtime.GC()
		encS = append(encS, b.timed("rdf.EncodeSnapshot", func() {
			for i, g := range []*datalink.Graph{ds.External, ds.Local} {
				var buf bytes.Buffer
				if err = rdf.EncodeSnapshot(&buf, g); err != nil {
					return
				}
				encoded[i] = buf.Bytes()
			}
		}))
		if err != nil {
			return nil, err
		}
		runtime.GC()
		decS = append(decS, b.timed("rdf.DecodeSnapshot", func() {
			for _, data := range encoded {
				if _, err = rdf.DecodeSnapshot(bytes.NewReader(data)); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	applyUs, err := b.applyUs(o)
	if err != nil {
		return nil, err
	}

	up := b.upsertMs.wall.from()
	var upSelf []float64
	for i, d := range b.upsertMs.wall[up] {
		upSelf = append(upSelf, d-b.upsertMs.fsync[up][i])
	}
	upTail := tailOf(b.upsertMs.wall[up])
	unattributed := 100 * (sumH - sumLeaves) / sumH
	if b.name == "link_serve" && math.Abs(unattributed) > unattributedTolerancePct {
		logf("WARNING: trace.unattributed_pct %.1f%% is outside +-%g%%: the layer calls do not explain the handler's time, so do not trust the per-layer split of this run",
			unattributed, unattributedTolerancePct)
	}

	lp := windowOr(float64(b.linkItems[windowPhase]))
	ip := windowOr(b.ingestItems[windowPhase])
	written := b.ingestItems[setupPhase] + b.ingestItems[windowPhase] + float64(b.upsertItems.Load())
	sm := b.sm
	overheadNs := spanCostNs()
	lateTail := tailOf(b.lateMs.pick())
	return []metric{
		{"service.link_self_ms", "ms", median(svcSelf), "handler minus the replica's LinkTopK, median"},
		{"service.upsert_self_ms", "ms", median(upSelf), "upsert minus its fsync time, " + b.upsertMs.wall.src()},
		{"upsert_tail_ms", "ms", upTail.Value, fmt.Sprintf("p%g of %d", upTail.Pct, upTail.N)},
		{"service.learn_self_s", "s", median(b.learnS.wall.pick()) - median(learnS), "POST /v1/learn minus datalink.LearnCtx"},
		{"datalink.self_ms", "ms", median(dlSelf), "LinkTopK minus its four calls, median"},
		{"trace.unattributed_pct", "%", unattributed, fmt.Sprintf("handler time the layer calls do not cover; tolerance +-%g%%", unattributedTolerancePct)},
		{"trace.overhead_pct", "%", 100 * overheadNs * spansPerItem * n / sumH, fmt.Sprintf("%.0f ns per span, %g spans per replayed item", overheadNs, spansPerItem)},
		{"core.classify_us_per_item", "us", tClassify / n / 1e3, ""},
		{"core.rules_fired_per_item", "count", fired / n, ""},
		{"core.no_rule_ratio", "ratio", noRule / n, ""},
		{"core.space_ms_per_item", "ms", tSpace / n / 1e6, ""},
		{"core.candidates_ms_per_item", "ms", tCands / n / 1e6, ""},
		{"core.candidates_per_item", "count", cands / n, ""},
		{"core.reduction_factor", "ratio", float64(ix.Total()) * n / cands, fmt.Sprintf("catalog of %d", ix.Total())},
		{"core.ns_per_candidate", "ns", (tSpace + tCands) / cands, ""},
		{"core.rules", "count", float64(o.pipe.Model.Rules.Len()), ""},
		{"core.learn_s", "s", median(learnS), ""},
		{"core.instance_index_s", "s", median(ixS), ""},
		{"linkage.topk_ms_per_item", "ms", tTopK / n / 1e6, ""},
		{"linkage.ns_per_pair", "ns", tTopK / cands, ""},
		{"linkage.pass_ratio", "ratio", passed / cands, ""},
		{"linkage.engine_build_s", "s", median(engS), ""},
		{"linkage.apply_us_per_item", "us", applyUs, "ApplyPatches over the workload's write batches"},
		{"similarity.lev_ns_per_call", "ns", levNs, ""},
		{"similarity.kernel_share_pct", "%", 100 * cands * levNs / tTopK, "upper bound"},
		{"store.wal_appends_per_item", "count", float64(sm.AppendsTotal.Value()) / written, fmt.Sprintf("%.0f items written", written)},
		{"store.wal_bytes_per_item", "B", float64(sm.AppendBytesTotal.Value()) / written, ""},
		{"store.fsync_ms", "ms", sm.FsyncSeconds.Sum() / float64(sm.FsyncSeconds.Count()) * 1e3, fmt.Sprintf("%d fsyncs on %s", sm.FsyncSeconds.Count(), fsName(b.work))},
		{"store.checkpoint_write_s", "s", sm.CheckpointSeconds.Sum() / float64(sm.CheckpointSeconds.Count()), ""},
		{"store.snapshot_mb", "MB", float64(sm.CheckpointLastBytes.Value()) / 1e6, ""},
		{"store.open_s", "s", median(b.openS.pick()), ""},
		{"rdf.snapshot_encode_s", "s", median(encS), "both graphs"},
		{"rdf.snapshot_decode_s", "s", median(decS), "both graphs"},
		{"runtime.alloc_mb_per_item", "MB", b.linkUse[lp].alloc / float64(b.linkItems[lp]) / 1e6, ""},
		{"runtime.gc_cpu_pct", "%", 100 * b.linkUse[lp].gcCPU / b.linkUse[lp].cpu, ""},
		{"runtime.alloc_kb_per_ingested_item", "KB", b.ingestUse[ip].alloc / b.ingestItems[ip] / 1e3, ""},
		{"loadgen.send_late_ms", "ms", lateTail.Value, fmt.Sprintf("p%g of %d sends, %s", lateTail.Pct, lateTail.N, b.lateMs.src())},
	}, nil
}

// timed runs fn in a root span and returns its seconds.
func (b *bench) timed(name string, fn func()) float64 {
	i := b.record(name, -1, "", fn)
	return float64(b.spans[i].dur()) / 1e9
}

// spanCostNs measures what recording one span costs.
func spanCostNs() float64 {
	const n = 100000
	var b bench
	b.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b.record("x", -1, "", func() {})
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// levNs times similarity.LevenshteinDistance over value pairs sampled
// from the replayed items' candidates.
func (b *bench) levNs(reps []linkReplay) float64 {
	ds := b.in.ds
	pn := datalink.NewIRI("http://provider.example/prop#partNumber")
	var as, bs []string
	for i, r := range reps {
		ext, ok := ds.External.FirstObject(b.in.quality[i].External, pn)
		if !ok || len(r.locs) == 0 {
			continue
		}
		step := max(1, len(r.locs)/levPairs)
		for j := 0; j < len(r.locs); j += step {
			if loc, ok := ds.Local.FirstObject(r.locs[j], pn); ok {
				as, bs = append(as, ext.Value), append(bs, loc.Value)
			}
		}
	}
	if len(as) == 0 {
		return 0
	}
	sink := 0
	const passes = 50
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := range as {
			sink += similarity.LevenshteinDistance(as[i], bs[i])
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(passes*len(as))
	if sink < 0 {
		panic("unreachable")
	}
	return ns
}

// applyUs replays the workload's write batches on an engine the
// benchmark builds over private copies of the graphs, timing only
// Engine.ApplyPatches: microseconds per item.
func (b *bench) applyUs(o *oracle) (float64, error) {
	ds := b.in.ds
	var batches [][]itemSpec
	for _, r := range []bool{true, false} {
		if b.name == "ingest_durable" {
			for i := 0; i < len(b.in.ext); i += 1000 {
				var batch []itemSpec
				for _, sp := range b.in.ext[i:min(i+1000, len(b.in.ext))] {
					batch = append(batch, render(sp, r))
				}
				batches = append(batches, batch)
			}
		}
		for _, l := range b.in.held[:tailUpserts] {
			batches = append(batches, []itemSpec{render(b.in.ext[b.in.extIndex[l.External.Value]], r)})
		}
	}
	se := ds.External.Clone()
	eng, err := linkage.New(o.cfg, se, ds.Local)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	items := 0
	for _, batch := range batches {
		terms := make([]datalink.Term, len(batch))
		for i, spec := range batch {
			item := datalink.NewIRI(spec.ID)
			for _, tr := range se.Find(item, datalink.Term{}, datalink.Term{}) {
				se.Remove(tr)
			}
			for p, vs := range spec.Properties {
				for _, v := range vs {
					se.Add(datalink.T(item, datalink.NewIRI(p), datalink.NewLiteral(v)))
				}
			}
			terms[i] = item
		}
		patches := []datalink.Patch{{Side: datalink.ExternalSide, Items: terms}}
		t0 := time.Now()
		eng.ApplyPatches(patches)
		total += time.Since(t0)
		items += len(batch)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(items), nil
}
