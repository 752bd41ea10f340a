package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// serviceMetrics is the service-layer instrument set. The resilience
// middleware holds direct references to the rejection counters and the
// in-flight gauge, which makes /metrics and /v1/status's resilience
// block the same atomics read two ways — parity by construction, not by
// synchronization.
type serviceMetrics struct {
	requests  *obs.CounterVec   // path, code
	duration  *obs.HistogramVec // path
	respBytes *obs.HistogramVec // path
	inFlight  *obs.Gauge
	rejected  *obs.CounterVec // reason
	timeouts  *obs.Counter
	panics    *obs.Counter
	stages    *obs.HistogramVec // stage: engine, blocking, scoring, learn, publish
	// work holds the link-query work counters, keyed by the trace count
	// name LinkTopK adds (datalink.CountLink*).
	work map[string]*obs.Counter
	// indexBuilds counts catalog index builds; learnedUnix is when the
	// served model was installed.
	indexBuilds *obs.Counter
	learnedUnix *obs.Gauge
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		requests: reg.CounterVec("linkrules_http_requests_total",
			"HTTP requests served, by normalized path and status code.", "path", "code"),
		duration: reg.HistogramVec("linkrules_http_request_seconds",
			"HTTP request latency, by normalized path.", obs.DefBuckets(), "path"),
		respBytes: reg.HistogramVec("linkrules_http_response_bytes",
			"HTTP response body size, by normalized path.", obs.SizeBuckets(), "path"),
		inFlight: reg.Gauge("linkrules_http_in_flight",
			"Requests currently being served."),
		rejected: reg.CounterVec("linkrules_http_rejected_total",
			"Requests rejected by the overload-protection middleware, by reason.", "reason"),
		timeouts: reg.Counter("linkrules_http_timeouts_total",
			"Requests that exceeded the server deadline."),
		panics: reg.Counter("linkrules_http_panics_total",
			"Handler panics recovered into 500 responses."),
		stages: reg.HistogramVec("linkrules_stage_seconds",
			"Pipeline stage durations (engine, blocking, scoring, learn, publish).",
			obs.DefBuckets(), "stage"),
		work: map[string]*obs.Counter{},
		indexBuilds: reg.Counter("linkrules_catalog_index_builds_total",
			"Catalog index builds (instance index and default engine): the first learn, recovery, and compactions."),
		learnedUnix: reg.Gauge("linkrules_model_learned_unix",
			"When the served model was installed (unix seconds; 0 = never)."),
	}
	for name, help := range map[string]string{
		datalink.CountLinkCandidates:   "Local candidates expanded by link queries: the sum of the items' reduced-space sizes.",
		datalink.CountLinkPairsScored:  "Candidate pairs link queries scored.",
		datalink.CountLinkPairsPruned:  "Candidate pairs link queries skipped unscored because their score bound could not reach the threshold or the k-th best score.",
		datalink.CountLinkPairsSkipped: "Candidate pairs link queries skipped with no bound of their own because the bound of their value-length band could not reach the threshold or the k-th best score.",
		datalink.CountLinkItemsNoRule:  "Items link queries answered with an empty reduced space because they fired no rule.",
	} {
		m.work[name] = reg.Counter("linkrules_"+name+"_total", help)
	}
	// Build identity as the conventional constant-1 info gauge, so every
	// scrape (and every loadgen report that diffs scrapes) names the
	// exact binary it measured.
	bi := obs.Build()
	reg.GaugeVec("linkrules_build_info",
		"Build identity of the serving binary; value is always 1.",
		"version", "go_version", "revision").
		With(bi.Version, bi.GoVersion, bi.Revision).Set(1)
	return m
}

// stageSink adapts the stage histogram to the obs.Trace sink signature,
// so every /v1/link records its stage breakdown whether or not the
// client asked for ?debug=timings.
func (m *serviceMetrics) stageSink() func(name string, d time.Duration) {
	return func(name string, d time.Duration) {
		m.stages.With(name).Observe(d.Seconds())
	}
}

// addWork adds a finished link query's work counters from its trace.
func (m *serviceMetrics) addWork(counts []obs.Count) {
	for _, c := range counts {
		m.work[c.Name].Add(uint64(c.N))
	}
}

// knownPaths is the fixed route set metrics are labeled with. Anything
// else (scans, typos) collapses into "other" so request labels cannot
// grow without bound.
var knownPaths = map[string]struct{}{
	"/healthz":           {},
	"/metrics":           {},
	"/v1/status":         {},
	"/v1/items/upsert":   {},
	"/v1/items/remove":   {},
	"/v1/items/bulk":     {},
	"/v1/learn":          {},
	"/v1/rules":          {},
	"/v1/link":           {},
	"/v1/admin/snapshot": {},
	"/debug/requests":    {},
}

func normalizePath(p string) string {
	if _, ok := knownPaths[p]; ok {
		return p
	}
	if len(p) >= len("/debug/pprof") && p[:len("/debug/pprof")] == "/debug/pprof" {
		return "/debug/pprof"
	}
	return "other"
}

// newRequestID mints a 16-hex-digit request ID. Uniqueness per log
// window is all correlation needs, so math/rand suffices.
func newRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// validRequestID accepts an inbound X-Request-ID for echoing: short and
// header-safe, so a hostile client cannot inject log or header content
// through it.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// hashKey reduces an API key to a stable non-reversible log token:
// correlatable across lines, useless to an attacker reading logs.
func hashKey(key string) string {
	if key == "" {
		return "anonymous"
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// registerFlightMetrics exposes the flight recorder's retention
// counters as scrape-time Func collectors reading the same atomics
// /debug/requests reports. Called once, from New.
func (s *Service) registerFlightMetrics() {
	fr := s.flight
	s.reg.CounterFunc("linkrules_flight_seen_total",
		"Requests offered to the flight recorder.",
		func() float64 { return float64(fr.Stats().Seen) })
	s.reg.CounterFunc("linkrules_flight_kept_total",
		"Requests retained by the flight recorder (slow + error + sampled).",
		func() float64 {
			st := fr.Stats()
			return float64(st.KeptSlow + st.KeptError + st.KeptSampled)
		})
}

// registerModelMetrics exposes the served model and the catalog indexes
// as scrape-time Func collectors reading the published query state, the
// one a link request loads. Each reads 0 before the first learn. Called
// once, from New.
func (s *Service) registerModelMetrics() {
	gauge := func(name, help string, fn func(v *datalink.QueryView) int) {
		s.reg.GaugeFunc(name, help, func() float64 {
			if v := s.state.Load().view; v != nil {
				return float64(fn(v))
			}
			return 0
		})
	}
	gauge("linkrules_model_rules", "Rules of the served model.",
		func(v *datalink.QueryView) int { return v.Model().Rules.Len() })
	gauge("linkrules_model_classes", "Classes the served model's rules predict.",
		func(v *datalink.QueryView) int { return v.Model().Stats.ClassesWithRules })
	gauge("linkrules_model_training_links", "Distinct training links the served model was learned from.",
		func(v *datalink.QueryView) int { return v.Model().Stats.TSSize })
	gauge("linkrules_catalog_ids", "Catalog IDs assigned, including those of removed items (IDs are never reused).",
		func(v *datalink.QueryView) int { return v.Instances().IDs().Len() })
	gauge("linkrules_catalog_instances", "Typed catalog items in the instance index.",
		func(v *datalink.QueryView) int { return v.Instances().Total() })
}

// registerStoreMetrics exposes the durability store's point-in-time
// state as Func collectors reading Stats() at scrape time — the same
// call /v1/status makes, so the two views cannot drift — plus the
// recovery outcome as constants. Called once, when Restore binds the
// store.
func (s *Service) registerStoreMetrics(rec *store.Recovery) {
	st := s.st
	reg := s.reg
	reg.GaugeFunc("linkrules_store_degraded",
		"1 when the store has fail-stopped (service is read-only until restart).",
		func() float64 {
			if st.Failed() != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("linkrules_store_wal_seq",
		"Last assigned write-ahead log sequence number.",
		func() float64 { return float64(st.Stats().Seq) })
	reg.GaugeFunc("linkrules_store_wal_records",
		"WAL records not yet covered by a snapshot.",
		func() float64 { return float64(st.Stats().WALRecords) })
	reg.GaugeFunc("linkrules_store_wal_bytes",
		"On-disk size of all live WAL segments.",
		func() float64 { return float64(st.Stats().WALBytes) })
	reg.GaugeFunc("linkrules_store_snapshots",
		"Snapshot files on disk.",
		func() float64 { return float64(st.Stats().Snapshots) })
	reg.CounterFunc("linkrules_store_checkpoints_total",
		"Checkpoints completed by this process.",
		func() float64 { return float64(st.Stats().Checkpoints) })
	reg.GaugeFunc("linkrules_store_last_snapshot_seq",
		"Sequence covered by the newest durable snapshot.",
		func() float64 { return float64(st.Stats().LastSnapshotSeq) })
	reg.GaugeFunc("linkrules_store_last_snapshot_unix",
		"When the newest snapshot was written (unix seconds; 0 = never).",
		func() float64 { return float64(st.Stats().LastSnapshotUnix) })

	replayed, torn, skipped := 0, 0, rec.SkippedSnapshots
	replayed = len(rec.Tail)
	if rec.TornTail {
		torn = 1
	}
	reg.Gauge("linkrules_recovery_replayed_records",
		"WAL records replayed at the last boot.").Set(int64(replayed))
	reg.Gauge("linkrules_recovery_torn_tail",
		"1 when the last boot found (and discarded) a torn WAL tail.").Set(int64(torn))
	reg.Gauge("linkrules_recovery_skipped_snapshots",
		"Invalid snapshot files passed over at the last boot.").Set(int64(skipped))
}
