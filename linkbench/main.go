// Command linkbench is the repository's benchmark. It drives the linking
// service in process — service.Handler() over a durable store at
// fsync=always in a throwaway directory, no sockets — with one of two
// workloads, checks the answers, and prints one JSON result line:
//
//	bash linkbench/run.sh --workload link_serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run. README.md in this directory
// defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloads = []string{"link_serve", "ingest_durable"}

// boots is how many times a run sets the stack up; setup_s is their
// median.
const boots = 4

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("linkbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: link_serve or ingest_durable")
	seed := fs.Uint64("seed", 1, "input seed: split, item order and schedule")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "linkbench: want --workload %v, --seconds >= 1 and --trace 0 or 1\n", workloads)
		return 2
	}
	if err := os.MkdirAll(".work", 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	work, err := os.MkdirTemp(".work", *name+"-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(work)

	b, ms, err := execute(*name, *seed, *seconds, *trace == 1, work)
	if err != nil {
		logf("error: %v", err)
		return 1
	}
	out := map[string]any{}
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := b.failed.Load() == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.attempted.Load(), "failed": b.failed.Load(), "metrics": out,
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		for _, p := range b.problems {
			logf("FAILED: %s", p)
		}
		return 1
	}
	return 0
}

// execute generates the inputs, sets the stack up boots times, checks
// the answers, runs the window, scores quality and collects the
// metrics of the requested kind.
func execute(name string, seed uint64, seconds int, traced bool, work string) (*bench, []metric, error) {
	steal0, t0 := stealSeconds(), time.Now()
	var phases []string
	tLap := t0
	lap := func(what string) {
		phases = append(phases, fmt.Sprintf("%s %.1fs", what, since(tLap)))
		tLap = time.Now()
	}
	defer func() {
		logf("run took %.1fs (%s); the hypervisor took %.2f CPU-seconds from this machine meanwhile",
			since(t0), strings.Join(phases, ", "), stealSeconds()-steal0)
	}()
	in, err := newInputs(seed)
	if err != nil {
		return nil, nil, err
	}
	logf("%s seed %d: %d external, %d local triples; %d links learned, %d held out; GOMAXPROCS %d, store on %s",
		name, seed, in.ds.External.Len(), in.ds.Local.Len(), len(in.train), len(in.held), runtime.GOMAXPROCS(0), fsName(work))
	lap("inputs")
	b, err := newBench(in, name, seconds, traced, work)
	if err != nil {
		return nil, nil, err
	}
	defer b.probeFile.Close()
	b.heapBase = heapLive()

	var s *stack
	for i := 0; i < boots; i++ {
		local := in.ds.Local.Clone() // input preparation, outside the clock
		if s != nil {
			if err := s.svc.Close(); err != nil {
				return nil, nil, err
			}
		}
		b.gc()
		b.calibrate()
		if s, err = b.boot(i, local); err != nil {
			return nil, nil, err
		}
	}
	b.gc()
	b.calibrate()
	lap("set-up")
	o, err := newOracle(in, traced)
	if err != nil {
		return nil, nil, err
	}
	probes0 := b.probe(s, in.probes)
	b.checkProbes(o, probes0)
	b.digest.Write(probes0)
	b.checkSpaces(o)
	if name == "ingest_durable" {
		// Before the cycles re-render the served items. link_serve's
		// stream answers the quality set itself.
		b.answerQuality(s)
	}
	if !traced {
		o = nil // not part of the served heap
	}
	lap("checks")
	b.phase = windowPhase
	b.gc()
	if s, err = b.window(s); err != nil {
		return nil, nil, err
	}
	b.phase = setupPhase
	lap("window")
	heapMB := (float64(heapLive()) - float64(b.heapBase)) / 1e6
	defer s.svc.Close()
	b.answerQuality(s) // items a short link_serve stream did not reach
	b.scoreQuality()

	e2e := b.endToEnd(heapMB)
	b.reportSpeed()
	logf("answers digest %x (quality set, probes and every deterministic stream answer)", b.digest.Sum(nil))
	if !traced {
		report("end-to-end", e2e)
		return b, e2e, nil
	}
	// The traced run's own end-to-end figures, to set against an
	// untraced run at the same seed: their difference is the tracing
	// overhead.
	report("end-to-end of the traced run", e2e)
	ms, err := b.layers(s, o)
	if err != nil {
		return nil, nil, err
	}
	lap("layers")
	if err := b.writeSpans(); err != nil {
		return nil, nil, err
	}
	report("per-layer", ms)
	return b, ms, nil
}

func report(title string, ms []metric) {
	logf("%s:", title)
	for _, m := range ms {
		logf("  %-36s %14.4f %-8s %s", m.name, m.value, m.unit, m.note)
	}
}

// endToEnd computes the end-to-end metrics. Each covers the window's
// operations of its kind, or the set-up's when the window has none; the
// note says which. Every time is stated at nominal machine speed (see
// timings.nominal), with the reference unit and the probe fsyncs of the
// same phase. The note keeps the figure as measured.
func (b *bench) endToEnd(heapMB float64) []metric {
	at := func(name, unit string, raw, nominal float64, note string) metric {
		return metric{name, unit, nominal, fmt.Sprintf("%s; %.4g as measured", note, raw)}
	}
	cpu := func(p phase) float64 { _, c := b.speed(p); return c }
	nominal := func(t *timings, p phase) []float64 { return t.nominal(p, cpu(p), b.diskSpeed(p)) }
	// med is the median of t's times in the phase its metric covers,
	// as measured and at nominal speed.
	med := func(t *timings) (raw, nom float64) {
		p := t.wall.from()
		return median(t.wall[p]), median(nominal(t, p))
	}
	setupRaw, setupNom := med(&b.setupS)
	link := b.linkMs.wall.from()
	p50Raw, p50Nom := med(&b.linkMs)
	tailRaw, tailNom := tailOf(b.linkMs.wall[link]), tailOf(nominal(&b.linkMs, link))
	lp := windowOr(float64(b.linkItems[windowPhase]))
	cpuMs := b.linkUse[lp].cpu * 1e3 / float64(b.linkItems[lp])
	upRaw, upNom := med(&b.upsertMs)
	ip := b.bulkS.wall.from()
	ingestRaw := b.ingestItems[ip] / sum(b.bulkS.wall[ip])
	ingestNom := b.ingestItems[ip] / sum(nominal(&b.bulkS, ip))
	learnRaw, learnNom := med(&b.learnS)
	ckptRaw, ckptNom := med(&b.ckptS)
	recovRaw, recovNom := med(&b.recovS)
	return []metric{
		at("setup_s", "s", setupRaw, setupNom, fmt.Sprintf("median of %d boots", len(b.setupS.wall[setupPhase]))),
		{"heap_live_mb", "MB", heapMB, "after a forced GC at the end of the window, above the inputs"},
		at("link_p50_ms", "ms", p50Raw, p50Nom, b.linkMs.wall.src()),
		at("link_tail_ms", "ms", tailRaw.Value, tailNom.Value, fmt.Sprintf("p%g of %d", tailNom.Pct, tailNom.N)),
		at("link_cpu_ms_per_item", "ms", cpuMs, cpuMs/cpu(lp), fmt.Sprintf("%d items", b.linkItems[lp])),
		{"link_f1", "ratio", b.qual.F1(), fmt.Sprintf("%d/%d correct of %d answered", b.qual.Correct, b.qual.Items, b.qual.Answered)},
		{"space_completeness", "ratio", b.qual.Completeness(), fmt.Sprintf("%d/%d held-out items", b.qual.InSpace, b.qual.Spaced)},
		at("upsert_p50_ms", "ms", upRaw, upNom, fmt.Sprintf("%s, fsync p50 %.3f ms", b.upsertMs.wall.src(), median(b.upsertMs.fsync.pick()))),
		at("ingest_items_per_s", "items/s", ingestRaw, ingestNom, fmt.Sprintf("%.0f items", b.ingestItems[ip])),
		at("learn_s", "s", learnRaw, learnNom, b.learnS.wall.src()),
		at("checkpoint_s", "s", ckptRaw, ckptNom, b.ckptS.wall.src()),
		at("recovery_s", "s", recovRaw, recovNom, b.recovS.wall.src()),
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// reportSpeed prints, for each phase, how much slower than nominal the
// reference unit ran.
func (b *bench) reportSpeed() {
	for p, name := range []string{"set-up", "window"} {
		if len(b.refWallMs[p]) == 0 {
			continue
		}
		w, c := b.speed(phase(p))
		disk := ""
		if n := len(b.fsyncRefMs[p]); n > 0 {
			d := b.diskSpeed(phase(p))
			disk = fmt.Sprintf("; probe fsync %.3f ms (%.2fx), %d probes", d*fsyncRefMs, d, n)
		}
		logf("machine speed in the %s: reference unit %.2f ms wall (%.2fx nominal), %.2f ms CPU (%.2fx), %d units%s",
			name, w*refUnitMs, w, c*refUnitMs, c, len(b.refWallMs[p]), disk)
	}
}

// writeSpans writes the traced run's spans, kept in memory until now.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(".out", 0o755); err != nil {
		return err
	}
	path := filepath.Join(".out", fmt.Sprintf("spans-%s-seed%d.json", b.name, b.in.seed))
	data, err := json.Marshal(b.spans)
	if err != nil {
		return err
	}
	logf("wrote %d spans to linkbench/%s", len(b.spans), path)
	return os.WriteFile(path, data, 0o644)
}
