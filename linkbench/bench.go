package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	datalink "repro"
	"repro/internal/core"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// phase tells set-up operations from the timed window's. A metric is
// computed over the window's operations of its kind when the window
// performs any, and over the set-up's otherwise.
type phase int

const (
	setupPhase phase = iota
	windowPhase
)

// samples holds one measurement per operation, by phase.
type samples [2][]float64

func (s *samples) add(p phase, v float64) { s[p] = append(s[p], v) }

// from is the phase a metric over s covers.
func (s *samples) from() phase { return windowOr(float64(len(s[windowPhase]))) }

func (s *samples) pick() []float64 { return s[s.from()] }

// src says which phase pick draws on and how many samples it holds.
func (s *samples) src() string {
	if s.from() == windowPhase {
		return fmt.Sprintf("window, n=%d", len(s[windowPhase]))
	}
	return fmt.Sprintf("set-up, n=%d", len(s[setupPhase]))
}

// timing is one timed operation: its wall time, the CPU time the
// hypervisor stole from the machine meanwhile, shared over its cores,
// and the time the stores spent in WAL fsyncs meanwhile.
type timing struct{ wall, stolen, fsync float64 }

func (t timing) inMs() timing { return timing{t.wall * 1e3, t.stolen * 1e3, t.fsync * 1e3} }

// timings holds one kind of operation's timings by phase.
type timings struct{ wall, stolen, fsync samples }

func (t *timings) add(p phase, v timing) {
	t.wall.add(p, v.wall)
	t.stolen.add(p, v.stolen)
	t.fsync.add(p, v.fsync)
}

// nominal returns the times of phase p at nominal speed: each one's
// fsync time divided by disk, how much slower than nominal the probe
// fsyncs ran, and the rest, less its stolen time, by cpu, how much
// slower than nominal the reference unit's CPU time ran.
func (t *timings) nominal(p phase, cpu, disk float64) []float64 {
	out := make([]float64, len(t.wall[p]))
	for i, w := range t.wall[p] {
		f := t.fsync[p][i]
		out[i] = (w - t.stolen[p][i] - f) / cpu
		if f > 0 {
			out[i] += f / disk
		}
	}
	return out
}

// stopwatch times one operation. Stolen time is the steal column of
// /proc/stat (10 ms ticks) divided by the machine's cores: a thread on a
// core that is stolen from stalls, so an operation loses about its
// cores' share of the steal whether it runs on one core or on all.
// Fsync time is what the store metrics' WAL fsync histogram gained.
type stopwatch struct {
	t0           time.Time
	steal, fsync float64
	sm           *store.Metrics
}

func (b *bench) startWatch() stopwatch {
	return stopwatch{time.Now(), stealSeconds(), b.sm.FsyncSeconds.Sum(), b.sm}
}

// stop returns the operation's timing in seconds.
func (w stopwatch) stop() timing {
	return timing{
		wall:   since(w.t0),
		stolen: max(0, stealSeconds()-w.steal) / float64(runtime.NumCPU()),
		fsync:  w.sm.FsyncSeconds.Sum() - w.fsync,
	}
}

// usage is a reading of the process's CPU and allocation counters.
type usage struct {
	cpu, gcCPU, alloc float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		alloc: float64(s[0].Value.Uint64()),
		gcCPU: s[1].Value.Float64(),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, gcCPU: u.gcCPU - v.gcCPU, alloc: u.alloc - v.alloc}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, gcCPU: u.gcCPU + v.gcCPU, alloc: u.alloc + v.alloc}
}

// bench is one run of one workload: its inputs, the stack under test,
// and every measurement and check result the run collects.
type bench struct {
	in      *inputs
	name    string
	seconds int
	traced  bool
	work    string // throwaway directory for the run's stores
	sm      *store.Metrics
	phase   phase

	attempted, failed atomic.Int64
	upsertItems       atomic.Int64
	mu                sync.Mutex
	problems          []string

	setupS, bulkS, learnS, ckptS, recovS timings
	openS                                samples
	linkMs, upsertMs                     timings
	ingestItems                          [2]float64
	ingestUse                            [2]usage
	linkItems                            [2]int
	linkUse                              [2]usage
	lateMs                               samples // generator lateness per send
	heapBase                             uint64
	ownTime                              time.Duration // forced GCs and probe fsyncs

	// ref is the reference work; refWallMs and refCPUMs are its unit
	// times, taken between the operations of each phase. probeFile is the
	// fsync probe's file and fsyncRefMs its fsync times.
	ref                 *refUnit
	refWallMs, refCPUMs samples
	probeFile           *os.File
	fsyncRefMs          samples

	// qualityAns holds the quality set's answers by index, nil until
	// asked; inSpace says, for each held-out item, whether its expert
	// link lies inside its reduced space.
	qualityAns [][]byte
	inSpace    []bool

	spans  []span
	digest hash.Hash
	qual   quality
}

// windowOr returns the phase whose operations a metric covers: the
// window when it performed n > 0 of them, else the set-up.
func windowOr(n float64) phase {
	if n > 0 {
		return windowPhase
	}
	return setupPhase
}

// stack is one booted service over a durable store.
type stack struct {
	dir string
	svc *service.Service
	h   http.Handler
}

func newBench(in *inputs, name string, seconds int, traced bool, work string) (*bench, error) {
	ref, err := newRefUnit()
	if err != nil {
		return nil, err
	}
	probe, err := os.Create(filepath.Join(work, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	return &bench{
		in: in, name: name, seconds: seconds, traced: traced, work: work,
		sm:         store.NewMetrics(obs.NewRegistry()),
		digest:     sha256.New(),
		qualityAns: make([][]byte, len(in.quality)),
		ref:        ref,
		probeFile:  probe,
	}, nil
}

// fail records a failed operation or check; the run then reports
// correct=false and exits non-zero.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// do sends one request through the in-process handler and counts it.
// Any status but 200 is a failed operation.
func (b *bench) do(h http.Handler, path string, body []byte) ([]byte, bool) {
	b.attempted.Add(1)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		b.fail("POST %s: %d %s", path, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
		return nil, false
	}
	if path == "/v1/items/upsert" {
		b.upsertItems.Add(1)
	}
	return rw.Body.Bytes(), true
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// gc forces a collection before a timed operation, so garbage the
// previous operation left is not collected inside it. The time it takes
// is the benchmark's own, and boot subtracts it from setup_s.
func (b *bench) gc() {
	t0 := time.Now()
	runtime.GC()
	b.ownTime += time.Since(t0)
}

func serviceOptions() service.Options {
	// A fresh registry per service: two services must not share one.
	return service.Options{DefaultLinker: datalink.DefaultLinkingConfig(), Metrics: obs.NewRegistry()}
}

// open opens (or recovers) the store in dir and restores a service over
// it; seed is used only when the store is empty.
func (b *bench) open(dir string, seed *service.Seed) (*stack, error) {
	t0 := time.Now()
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways, SnapshotEvery: -1, Metrics: b.sm})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	b.openS.add(b.phase, since(t0))
	svc, err := service.Restore(st, rec, seed, serviceOptions())
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("restoring service: %w", err)
	}
	return &stack{dir: dir, svc: svc, h: svc.Handler()}, nil
}

// boot brings up a fresh deployment the way an operator would: open an
// empty store seeded with the local catalog, bulk-load the external
// side, learn, checkpoint, write a WAL tail, restart from disk, and
// warm the engine with one link request. local must be a private copy:
// the service mutates the graphs it is given.
func (b *bench) boot(i int, local *datalink.Graph) (*stack, error) {
	w, own0 := b.startWatch(), b.ownTime
	s, err := b.open(filepath.Join(b.work, fmt.Sprintf("boot%d", i)),
		&service.Seed{Local: local, Ontology: b.in.ds.Ontology})
	if err != nil {
		return nil, err
	}
	b.bulk(s, 0)
	b.learn(s)
	b.checkpoint(s)
	b.tail(s, 0)
	if s, err = b.restart(s); err != nil {
		return nil, err
	}
	ids := make([]string, warmItems)
	for j, l := range b.in.probes[:warmItems] {
		ids[j] = l.External.Value
	}
	b.do(s.h, "/v1/link", linkBody(ids...))
	t := w.stop()
	t.wall -= (b.ownTime - own0).Seconds()
	b.setupS.add(b.phase, t)
	return s, nil
}

// bulk refreshes every external item through the streaming bulk
// endpoint in rendering r. The report must show every item committed
// and no errors.
func (b *bench) bulk(s *stack, r int) {
	b.gc()
	u0 := readUsage()
	w := b.startWatch()
	resp, ok := b.do(s.h, "/v1/items/bulk?side=external", b.in.bulk[r])
	t := w.stop()
	u := readUsage().sub(u0)
	if !ok {
		return
	}
	var rep service.BulkReport
	if err := json.Unmarshal(resp, &rep); err != nil || rep.Errors != 0 || rep.Upserted != len(b.in.ext) {
		b.fail("bulk report: %d/%d items upserted, %d errors (%v)", rep.Upserted, len(b.in.ext), rep.Errors, err)
		return
	}
	b.ingestItems[b.phase] += float64(rep.Upserted)
	b.bulkS.add(b.phase, t)
	b.ingestUse[b.phase] = b.ingestUse[b.phase].add(u)
}

func (b *bench) learn(s *stack) {
	b.gc()
	w := b.startWatch()
	resp, ok := b.do(s.h, "/v1/learn", b.in.learnBody)
	t := w.stop()
	if !ok {
		return
	}
	var lr struct {
		Rules int `json:"rules"`
	}
	if err := json.Unmarshal(resp, &lr); err != nil || lr.Rules == 0 {
		b.fail("learn learned no rules (%v)", err)
		return
	}
	b.learnS.add(b.phase, t)
}

func (b *bench) checkpoint(s *stack) {
	b.gc()
	b.attempted.Add(1)
	w := b.startWatch()
	if _, err := s.svc.Checkpoint(); err != nil {
		b.fail("checkpoint: %v", err)
		return
	}
	b.ckptS.add(b.phase, w.stop())
}

// tail writes the WAL tail: one single-item upsert per tail item, in
// rendering r, closed loop, each followed by a probe fsync.
func (b *bench) tail(s *stack, r int) {
	for _, l := range b.in.held[:tailUpserts] {
		b.upsert(s.h, upsertBody(render(b.in.ext[b.in.extIndex[l.External.Value]], r == 1)))
		b.probeFsync()
	}
}

// upsert sends one upsert and records its timing.
func (b *bench) upsert(h http.Handler, body []byte) {
	w := b.startWatch()
	_, ok := b.do(h, "/v1/items/upsert", body)
	t := w.stop()
	if ok {
		b.upsertMs.add(b.phase, t.inMs())
	}
}

// restart closes the service and recovers a new one from its store.
func (b *bench) restart(s *stack) (*stack, error) {
	if err := s.svc.Close(); err != nil {
		return nil, fmt.Errorf("closing service: %w", err)
	}
	b.gc()
	b.attempted.Add(1)
	w := b.startWatch()
	s2, err := b.open(s.dir, nil)
	if err != nil {
		return nil, err
	}
	b.recovS.add(b.phase, w.stop())
	return s2, nil
}

// probe asks every item in its own link request, closed loop, and
// returns the concatenated answers. Probes are checks: their latency is
// not measured.
func (b *bench) probe(s *stack, items []datalink.Link) []byte {
	var out []byte
	for _, l := range items {
		resp, _ := b.do(s.h, "/v1/link", linkBody(l.External.Value))
		out = append(out, resp...)
	}
	return out
}

// linkAnswer is the decoded /v1/link response.
type linkAnswer struct {
	Results []struct {
		Item    string `json:"item"`
		Matches []struct {
			Local string  `json:"local"`
			Score float64 `json:"score"`
		} `json:"matches"`
	} `json:"results"`
}

// top1 returns the best match of a single-item answer, or "".
func top1(resp []byte) (string, error) {
	var a linkAnswer
	if err := json.Unmarshal(resp, &a); err != nil {
		return "", err
	}
	if len(a.Results) != 1 {
		return "", fmt.Errorf("%d results for one item", len(a.Results))
	}
	if len(a.Results[0].Matches) == 0 {
		return "", nil
	}
	return a.Results[0].Matches[0].Local, nil
}

// oracle is the pipeline and engine the benchmark builds itself from
// the same inputs the service got: the reference the service's answers
// are checked against, and what the traced run times layer by layer.
type oracle struct {
	in   *inputs
	pipe *datalink.Pipeline
	eng  *linkage.Engine
	cfg  datalink.LinkerConfig
}

func newOracle(in *inputs, withView bool) (*oracle, error) {
	ds := in.ds
	m, err := datalink.LearnCtx(context.Background(), datalink.LearnerConfig{},
		datalink.TrainingSet{Links: in.train}, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		return nil, fmt.Errorf("oracle learn: %w", err)
	}
	o := &oracle{in: in, cfg: datalink.DefaultLinkingConfig()}
	o.pipe = datalink.NewPipelineWithModel(m, ds.External, ds.Local, ds.Ontology)
	o.pipe.Instances.Freeze(ruleClasses(m))
	if withView {
		if err := o.pipe.EnsureLinker(o.cfg); err != nil {
			return nil, err
		}
	}
	if o.eng, err = linkage.New(o.cfg, ds.External, ds.Local); err != nil {
		return nil, err
	}
	return o, nil
}

func ruleClasses(m *datalink.Model) []datalink.Term {
	out := make([]datalink.Term, 0, m.Rules.Len())
	for _, r := range m.Rules.Rules {
		out = append(out, r.Class)
	}
	return out
}

// topK is the serving path spelled out in public calls: classify,
// reduce, expand the candidates, score them all, keep the best k.
func (o *oracle) topK(item datalink.Term) []datalink.Match {
	ix := o.pipe.Instances
	sr := core.Space(item, o.pipe.Classifier.Classify(item, o.in.ds.External), ix)
	ms := o.eng.ScorePairs(core.CandidatePairs(sr, ix))
	if len(ms) > topK {
		ms = ms[:topK]
	}
	return ms
}

// inSpace reports whether l's expert local item is inside the reduced
// space of its external item.
func (o *oracle) inSpace(l datalink.Link) bool {
	for _, p := range o.pipe.Classifier.Classify(l.External, o.in.ds.External) {
		if o.pipe.Instances.Contains(p.Class, l.Local) {
			return true
		}
	}
	return false
}

// checkProbes compares the service's answers for the probe items with
// the oracle's, match by match and bit for bit.
func (b *bench) checkProbes(o *oracle, answers []byte) {
	dec := json.NewDecoder(bytes.NewReader(answers))
	for _, l := range b.in.probes {
		var a linkAnswer
		if err := dec.Decode(&a); err != nil || len(a.Results) != 1 {
			b.fail("probe %s: undecodable answer (%v)", l.External.Value, err)
			continue
		}
		want := o.topK(l.External)
		got := a.Results[0].Matches
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].Local == want[i].Local.Value && got[i].Score == want[i].Score
		}
		b.attempted.Add(1)
		if !same {
			b.fail("probe %s: service answered %v, oracle %v", l.External.Value, got, want)
		}
	}
}

// checkSpaces records, with the oracle, whether each held-out item's
// expert local item lies inside the item's reduced space.
func (b *bench) checkSpaces(o *oracle) {
	b.inSpace = make([]bool, len(b.in.held))
	for i, l := range b.in.held {
		b.inSpace[i] = o.inSpace(l)
	}
}

// answerQuality asks the service for every quality-set item not yet
// answered, closed loop, one request at a time, with a calibration
// block before every calibrateEvery requests and after the last. The
// requests are link operations of the current phase: their latency and
// CPU are recorded. Each batch starts after a forced GC, which the
// calibration block needs, and so the collector's share of the CPU
// recorded is the cycles the batch's own garbage set off.
func (b *bench) answerQuality(s *stack) {
	var todo []int
	for i, a := range b.qualityAns {
		if a == nil {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return
	}
	var use usage
	b.gc()
	for len(todo) > 0 {
		batch := todo[:min(calibrateEvery, len(todo))]
		todo = todo[len(batch):]
		b.calibrate()
		u0 := readUsage()
		var prev time.Time
		for k, i := range batch {
			w := b.startWatch()
			if k > 0 {
				// A closed-loop request is due when the previous one ends.
				b.lateMs.add(b.phase, ms(w.t0.Sub(prev)))
			}
			resp, ok := b.do(s.h, "/v1/link", linkBody(b.in.quality[i].External.Value))
			t := w.stop()
			prev = time.Now()
			if ok {
				b.linkMs.add(b.phase, t.inMs())
				b.linkItems[b.phase]++
			}
			b.qualityAns[i] = resp
		}
		use = use.add(readUsage().sub(u0))
		b.gc()
	}
	b.calibrate()
	b.linkUse[b.phase] = b.linkUse[b.phase].add(use)
}

// scoreQuality scores the quality set's top-1 answers against the
// expert links, and the space completeness over every held-out item.
// An item answered correctly outside its own reduced space would mean
// the service and the benchmark's pipeline disagree, so it fails the
// run.
func (b *bench) scoreQuality() {
	q := quality{Items: len(b.in.quality)}
	for i, l := range b.in.quality {
		b.digest.Write(b.qualityAns[i])
		got, err := top1(b.qualityAns[i])
		if err != nil {
			b.fail("quality item %s: %v", l.External.Value, err)
			continue
		}
		if got == "" {
			continue
		}
		q.Answered++
		if got == l.Local.Value {
			q.Correct++
			if !b.inSpace[i] { // quality is held[:qualityN]: same index
				b.fail("quality item %s: correct link outside its reduced space", l.External.Value)
			}
		}
	}
	for _, in := range b.inSpace {
		q.Spaced++
		if in {
			q.InSpace++
		}
	}
	if q.F1() == 0 || q.Completeness() == 0 {
		b.fail("quality: f1 %.4f, completeness %.4f", q.F1(), q.Completeness())
	}
	b.qual = q
}

func heapLive() uint64 {
	runtime.GC() // a measurement, not a timed operation's clean start
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// fsName names the filesystem of dir, for the fsync figures.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x65735546: "fuse", 0x6A656A63: "virtiofs", 0x01021997: "9p",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// stealSeconds reads the CPU time the hypervisor took from this
// machine so far (the steal column of /proc/stat), or -1 where that is
// not available. A run reports how much it lost, because on a shared VM
// that is what moves its figures between runs.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "linkbench: "+format+"\n", args...) }
