// Package service exposes the linking pipeline as a long-lived HTTP/JSON
// service: load and mutate item descriptions, learn classification rules
// from labeled links, and query top-k links inside the rule-reduced
// space — without ever rebuilding the matcher's value index from scratch
// between requests.
//
// # Snapshot-isolated queries
//
// The service owns the external graph (SE), the local catalog (SL) and
// the ontology, but queries never touch them. Every mutation (item
// upsert/remove, learn) briefly takes the service's write mutex, applies
// the change, patches the pipeline's catalog value index and instance
// index incrementally (per item — no full re-scan of either), and then
// publishes an immutable query state: copy-on-write snapshots of both
// graphs, the instance index and the linkage engine, swapped in through
// one atomic pointer. Link, status and rules requests load that pointer
// and run entirely against the frozen state, and nothing they read is
// ever written again, so no lock is held while scoring runs: a slow
// link query never delays a concurrent upsert, and an upsert never
// waits for a query.
//
// The catalog indexes are built once, when the first model is
// installed (by the first learn, or by recovery), and a relearn keeps
// them: it swaps the model and classifier only. The one exception is
// compaction: IDs are never reused, so a learn rebuilds both indexes
// once more than a quarter of the IDs name no typed catalog item
// (Pipeline.SetModel). The served model keeps its rules, stats and
// config, not the learner's training index, which no request reads.
//
// The isolation contract: classification, candidate expansion and
// scoring of one link request all observe the one published state the
// request loaded, end to end; the next request sees the new state.
//
// Link queries run under the request's context, so a dropped connection
// cancels in-flight scoring.
//
// # Durable mode
//
// A service built with Restore is bound to an internal/store durability
// directory: every mutation is appended to a CRC-framed write-ahead log
// before it is applied (one choke point, commit, shared by HTTP
// handlers, LearnLinks and recovery replay), and checkpoints serialize
// the published copy-on-write bundle into binary snapshots without
// blocking writers. A restarted process replays snapshot + WAL tail and
// answers queries exactly as the old one did, without learning again;
// see durable.go and internal/store.
//
// # Endpoints
//
//	GET  /healthz            liveness probe
//	GET  /v1/status          corpus sizes, versions, model and durability state
//	POST /v1/items/upsert    replace item descriptions on one side
//	POST /v1/items/remove    remove items (and their training links) on one side
//	POST /v1/items/bulk      streaming bulk ingest (NDJSON or N-Triples body,
//	                         chunked into batched WAL records; see bulk.go)
//	POST /v1/learn           learn rules from labeled same-as links
//	GET  /v1/rules           the learned rule set
//	POST /v1/link            top-k links for items, in their reduced space
//	POST /v1/admin/snapshot  force a durability checkpoint
//
// See examples/service for a runnable walkthrough.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures a Service.
type Options struct {
	// Learner parameterizes rule learning; the zero value is the paper's
	// defaults.
	Learner datalink.LearnerConfig
	// DefaultLinker is used by link requests that do not carry their own
	// comparators. Leaving it zero makes comparators mandatory per
	// request.
	DefaultLinker datalink.LinkerConfig
	// BulkBatch is how many items POST /v1/items/bulk commits per
	// batched WAL record; 0 means 1000. A request's ?batch= parameter
	// overrides it.
	BulkBatch int
	// Resilience configures the overload-protection middleware (panic
	// recovery, admission control, rate limiting, request deadlines); the
	// zero value applies no limits. See resilience.go.
	Resilience ResilienceOptions
	// Metrics is the registry the service registers its instruments on
	// and serves at GET /metrics; nil means a fresh private registry.
	// Share one registry between the service and its store
	// (store.NewMetrics) for a single scrape endpoint — but never
	// between two services, which would collide on metric names.
	Metrics *obs.Registry
	// AccessLog, when set, receives one structured line per request
	// (method, path, status, duration, hashed client key, request ID).
	AccessLog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/, inside the
	// resilience wrap — so auth, rate limiting and admission control
	// gate the profiler exactly like any API endpoint.
	EnablePprof bool
	// Recorder configures the flight recorder every completed request is
	// offered to (see obs.RecorderOptions); the zero value keeps slow and
	// error records with default ring sizes and samples no fast traffic.
	Recorder obs.RecorderOptions
	// DebugRequests mounts GET /debug/requests — the flight recorder's
	// query endpoint — inside the resilience wrap, gated like pprof.
	DebugRequests bool
}

// Service is the shared state behind the HTTP API. Mutations (items,
// learn) serialize on mu, apply their change to the live graphs and
// pipeline, and publish a new immutable queryState. Queries load the
// current queryState from the atomic pointer and never take mu, so
// scoring runs with no service-level lock held.
type Service struct {
	opts Options

	// mu serializes writers only. The live graphs and pipeline may only
	// be touched under it.
	mu    sync.Mutex
	se    *datalink.Graph
	sl    *datalink.Graph
	ol    *datalink.Ontology
	links []datalink.Link
	pipe  *datalink.Pipeline

	// state is the published immutable view every query runs against.
	// Writers replace it wholesale after each mutation.
	state atomic.Pointer[queryState]

	// st is the durability store; nil means ephemeral mode. When set,
	// every mutation is WAL-logged through commit before it is applied
	// (see durable.go), and checkpoints snapshot the published state.
	st       *store.Store
	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup
	ckptErr  atomic.Value // string: last checkpoint failure, "" = ok
	// closing stops new background checkpoints from being spawned (set
	// under mu by Close before it waits on ckptWG, so the wait cannot
	// race a concurrent Add).
	closing bool

	// res is the overload-protection middleware state (see
	// resilience.go); always non-nil.
	res *resilience

	// reg/met are the metrics registry and the service instrument set
	// (see metrics.go); always non-nil.
	reg *obs.Registry
	met *serviceMetrics

	// flight retains recent request records with tail-based retention
	// (slow and error requests always survive); always non-nil.
	flight *obs.FlightRecorder
}

// queryState is one published point-in-time view: frozen copy-on-write
// graph snapshots and the pipeline's frozen QueryView, all safe for
// unsynchronized concurrent reads. view is nil until a model has been
// learned.
type queryState struct {
	se, sl *datalink.Graph
	view   *datalink.QueryView
	links  int
}

// New builds a service over the given graphs and ontology; nil arguments
// start empty. The graphs must not be mutated behind the service's back
// afterwards.
func New(se, sl *datalink.Graph, ol *datalink.Ontology, opts Options) *Service {
	if se == nil {
		se = datalink.NewGraph()
	}
	if sl == nil {
		sl = datalink.NewGraph()
	}
	if ol == nil {
		ol = datalink.NewOntology()
	}
	s := &Service{opts: opts, se: se, sl: sl, ol: ol}
	s.reg = opts.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.met = newServiceMetrics(s.reg)
	s.flight = obs.NewFlightRecorder(opts.Recorder)
	s.registerFlightMetrics()
	s.registerModelMetrics()
	obs.RegisterRuntime(s.reg)
	s.res = newResilience(opts.Resilience, s.met, opts.AccessLog)
	s.res.flight = s.flight
	s.publishLocked(context.Background())
	return s
}

// Metrics returns the registry behind GET /metrics, for embedding
// callers that scrape or extend it programmatically.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// timeStage times one write-path stage. With a trace in the context the
// stage becomes a span — landing in the request's trace, the flight
// recorder AND (via the trace sink) the stage histogram; without one it
// observes the histogram directly. Exactly one histogram observation
// either way.
func (s *Service) timeStage(ctx context.Context, name string) func() {
	if obs.TraceFrom(ctx) != nil {
		sp := obs.StartSpan(ctx, name)
		return sp.End
	}
	t0 := time.Now()
	return func() { s.met.stages.With(name).ObserveSince(t0) }
}

// publishLocked snapshots the live state into a fresh queryState and
// swaps it in for queries. O(1): graph, instance-index and engine
// snapshots are copy-on-write, and unchanged graphs reuse their cached
// snapshot. Callers must hold the write lock (or be the constructor).
func (s *Service) publishLocked(ctx context.Context) {
	done := s.timeStage(ctx, "publish")
	qs := &queryState{
		se:    s.se.Snapshot(),
		sl:    s.sl.Snapshot(),
		links: len(s.links),
	}
	if s.pipe != nil {
		qs.view = s.pipe.Snapshot()
	}
	s.state.Store(qs)
	done()
}

// LearnLinks appends labeled links and relearns the model — the
// programmatic equivalent of POST /v1/learn, for seeding a service with
// an existing training set at startup. Like every mutation it flows
// through the logged choke point, so in durable mode the links survive a
// restart. A link whose endpoint is not an IRI or a blank node is an
// error, and nothing is logged.
func (s *Service) LearnLinks(links []datalink.Link) error {
	if err := (datalink.TrainingSet{Links: links}).Validate(); err != nil {
		return err
	}
	_, err := s.commit(context.Background(), &store.Record{Op: store.OpLearn, Learn: &store.LearnOp{Links: links}})
	return err
}

// learnLocked learns a model from the live graphs and the accumulated
// links and installs it without its training index. On failure the
// previous model and indexes stay in place. Callers must hold the write
// lock and publish afterwards.
func (s *Service) learnLocked(ctx context.Context) error {
	done := s.timeStage(ctx, "learn")
	ts := datalink.TrainingSet{Links: s.links} // LearnCtx reads it into a deduplicated copy
	m, err := datalink.LearnCtx(ctx, s.opts.Learner, ts, s.se.Snapshot(), s.sl.Snapshot(), s.ol)
	if err != nil {
		return err
	}
	done()
	s.installLocked(&datalink.Model{Rules: m.Rules, Stats: m.Stats, Config: m.Config})
	return nil
}

// installLocked serves m, learned or recovered, over the live graphs.
// The first model builds the pipeline and with it the catalog indexes:
// the instance index and the default linker's engine. Every later one
// swaps only the model and keeps the indexes, which item mutations keep
// current, unless Pipeline.SetModel's compaction rule rebuilds them.
// Callers must hold the write lock.
func (s *Service) installLocked(m *datalink.Model) {
	built := true
	if s.pipe == nil {
		s.pipe = datalink.NewPipelineWithModel(m, s.se, s.sl, s.ol)
	} else {
		built = s.pipe.SetModel(m)
	}
	if built {
		s.met.indexBuilds.Inc()
	}
	s.met.learnedUnix.Set(time.Now().Unix())
	// Build the engine for the default comparators on the write path,
	// so every published view scores default-config queries with its
	// snapshot instead of compiling a value index per request. A no-op
	// while the engine exists. An invalid default config is surfaced on
	// the first query that relies on it, not here.
	if len(s.opts.DefaultLinker.Comparators) > 0 {
		_ = s.pipe.EnsureLinker(s.opts.DefaultLinker)
	}
}

// validateItem rejects malformed item descriptions. Run before any graph
// mutation, so a 400 response guarantees nothing was changed.
func validateItem(side store.Side, it store.Item) error {
	for prop := range it.Props {
		if prop == "" {
			return fmt.Errorf("item %s: empty property IRI", it.ID)
		}
	}
	if side != store.Local && len(it.Classes) > 0 {
		return fmt.Errorf("item %s: classes are only accepted on the local side", it.ID)
	}
	for _, c := range it.Classes {
		if c == "" {
			return fmt.Errorf("item %s: empty class IRI", it.ID)
		}
	}
	return nil
}

// replaceItemLocked swaps an item's triples for the given (already
// validated) description on one side of the corpus. It is only ever
// reached from applyLocked — the logged-mutation choke point — so every
// path that calls it (HTTP upsert, recovery replay) hits the same code.
// Callers must hold the write lock.
func (s *Service) replaceItemLocked(side store.Side, item datalink.Term, props map[string][]string, classes []string) {
	g := s.graphLocked(side)
	for _, tr := range g.Find(item, datalink.Term{}, datalink.Term{}) {
		g.Remove(tr)
	}
	for prop, vals := range props {
		p := datalink.NewIRI(prop)
		for _, v := range vals {
			g.Add(datalink.T(item, p, datalink.NewLiteral(v)))
		}
	}
	if side == store.Local {
		for _, c := range classes {
			g.Add(datalink.T(item, datalink.RDFType, datalink.NewIRI(c)))
		}
	}
}

// Handler returns the service's HTTP API, wrapped in the
// overload-protection middleware (panic recovery, authentication, rate
// limiting, admission control, per-request deadlines — resilience.go).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/items/upsert", s.handleUpsert)
	mux.HandleFunc("POST /v1/items/remove", s.handleRemove)
	mux.HandleFunc("POST /v1/items/bulk", s.handleBulk)
	mux.HandleFunc("POST /v1/learn", s.handleLearn)
	mux.HandleFunc("GET /v1/rules", s.handleRules)
	mux.HandleFunc("POST /v1/link", s.handleLink)
	mux.HandleFunc("POST /v1/admin/snapshot", s.handleAdminSnapshot)
	mux.Handle("GET /metrics", s.reg)
	if s.opts.DebugRequests {
		// Like pprof: inside the resilience wrap, so auth and the other
		// limits gate the flight recorder's query endpoint.
		mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	}
	if s.opts.EnablePprof {
		// Registered inside the mux, so the resilience wrap outside it
		// (auth, rate limiting, admission) gates the profiler; only
		// /healthz bypasses those checks.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.res.wrap(mux)
}
