package service

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Overload protection: every request (except the /healthz liveness
// probe) passes through a middleware stack before reaching its handler:
//
//	panic recovery   a panicking handler becomes a 500; the server keeps
//	                 serving instead of killing the connection
//	authentication   API keys from a static set; unauthenticated clients
//	                 share one anonymous rate bucket, or get 401 in
//	                 strict mode
//	rate limiting    per-client token bucket (sustained rate + burst),
//	                 excess gets 429 + Retry-After
//	admission        a bounded in-flight semaphore; requests beyond the
//	                 cap get 429 + Retry-After instead of queueing
//	                 without bound
//	deadline         a per-request context timeout; handlers that honor
//	                 the context turn it into 503 + Retry-After
//
// Rejections are cheap (no handler work, no allocation beyond the error
// body), so the service sheds load instead of collapsing under it. All
// counters and limits are surfaced by /v1/status.

// Machine-readable rejection reasons, carried in the error envelope's
// "reason" field so clients can react without parsing prose.
const (
	reasonOverloaded   = "overloaded"         // 429: in-flight cap reached
	reasonRateLimited  = "rate_limited"       // 429: client token bucket empty
	reasonUnauthorized = "unauthorized"       // 401: missing or unknown API key
	reasonTimeout      = "deadline_exceeded"  // 503: per-request deadline hit
	reasonPanic        = "internal_error"     // 500: handler panicked
	reasonPersist      = "persist_failed"     // 503: this mutation's WAL append failed
	reasonDegraded     = "degraded_read_only" // 503: store fail-stopped earlier
	reasonBusy         = "checkpoint_busy"    // 409: snapshot already in flight
)

// ResilienceOptions configures the overload-protection middleware. The
// zero value applies no limits (panic recovery is always on).
type ResilienceOptions struct {
	// MaxInFlight bounds concurrently served requests; excess requests
	// are rejected with 429 + Retry-After. 0 means unlimited.
	MaxInFlight int
	// RequestTimeout is the per-request context deadline; handlers that
	// run past it answer 503 + Retry-After. 0 means none.
	RequestTimeout time.Duration
	// Rate is the sustained per-client request rate (requests/second),
	// enforced by a token bucket per API key. 0 means unlimited.
	Rate float64
	// Burst is the token-bucket capacity; 0 means max(1, round(Rate)).
	Burst int
	// APIKeys is the set of accepted client keys (Authorization: Bearer
	// or X-API-Key). Empty means authentication is disabled and every
	// client shares the anonymous bucket.
	APIKeys []string
	// StrictAuth rejects unauthenticated requests with 401 instead of
	// routing them to the shared anonymous bucket. Requires APIKeys.
	StrictAuth bool
	// Clock substitutes the rate limiter's time source in tests; nil
	// means time.Now.
	Clock func() time.Time
}

// anonKey is the bucket key unauthenticated clients share.
const anonKey = ""

// retryAfter is the Retry-After hint of every rejection except a rate
// limit's, which computes its own wait.
const retryAfter = time.Second

// resilience is the middleware's runtime state. Its counters and the
// in-flight gauge are obs instruments: /v1/status reads their values,
// /metrics renders the very same atomics, so the two views agree by
// construction.
type resilience struct {
	opts ResilienceOptions

	sem      chan struct{} // nil when MaxInFlight == 0
	inFlight *obs.Gauge
	burst    float64
	clock    func() time.Time

	// buckets is built once at construction (configured keys + the
	// anonymous bucket) and read-only afterwards, so the hot-path lookup
	// takes no lock.
	buckets map[string]*bucket

	met *serviceMetrics
	log *slog.Logger // access log; nil disables
	// flight receives every completed request for tail-based retention;
	// nil-safe (Observe on a nil recorder is a no-op).
	flight *obs.FlightRecorder

	rejectedOverload *obs.Counter
	rejectedRate     *obs.Counter
	rejectedAuth     *obs.Counter
	timeouts         *obs.Counter
	panics           *obs.Counter
}

func newResilience(opts ResilienceOptions, met *serviceMetrics, accessLog *slog.Logger) *resilience {
	if met == nil {
		met = newServiceMetrics(obs.NewRegistry())
	}
	rz := &resilience{opts: opts, clock: opts.Clock, met: met, log: accessLog}
	rz.inFlight = met.inFlight
	rz.rejectedOverload = met.rejected.With(reasonOverloaded)
	rz.rejectedRate = met.rejected.With(reasonRateLimited)
	rz.rejectedAuth = met.rejected.With(reasonUnauthorized)
	rz.timeouts = met.timeouts
	rz.panics = met.panics
	if rz.clock == nil {
		rz.clock = time.Now
	}
	if opts.MaxInFlight > 0 {
		rz.sem = make(chan struct{}, opts.MaxInFlight)
	}
	rz.burst = float64(opts.Burst)
	if rz.burst <= 0 {
		rz.burst = math.Max(1, math.Round(opts.Rate))
	}
	rz.buckets = make(map[string]*bucket, len(opts.APIKeys)+1)
	rz.buckets[anonKey] = &bucket{}
	for _, k := range opts.APIKeys {
		if k != "" {
			rz.buckets[k] = &bucket{}
		}
	}
	return rz
}

// bucket is one client's token bucket. Tokens accrue at Rate per second
// up to burst; each admitted request costs one.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take removes one token if available, returning (true, 0) on success
// or (false, wait-until-next-token) on rejection.
func (b *bucket) take(now time.Time, rate, burst float64) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt.Seconds()*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// client authenticates the request, returning the rate-bucket key. A
// presented key must be in the configured set; a missing key maps to
// the anonymous bucket unless StrictAuth is on. With no keys configured
// authentication is disabled entirely and every client is anonymous —
// presented keys are deliberately NOT used as bucket keys then, or any
// client could mint itself fresh buckets at will.
func (rz *resilience) client(r *http.Request) (key string, ok bool) {
	presented := presentedKey(r)
	if len(rz.buckets) == 1 { // no APIKeys configured
		return anonKey, true
	}
	if presented != "" {
		if _, known := rz.buckets[presented]; known {
			return presented, true
		}
		return "", false
	}
	if rz.opts.StrictAuth {
		return "", false
	}
	return anonKey, true
}

// presentedKey extracts the client's API key from the request headers
// (X-API-Key, or Authorization: Bearer), or "" when none was sent.
func presentedKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && strings.EqualFold(auth[:7], "Bearer ") {
		return auth[7:]
	}
	return ""
}

// allow runs the rate-limit check for one admitted client key.
func (rz *resilience) allow(key string) (bool, time.Duration) {
	if rz.opts.Rate <= 0 {
		return true, 0
	}
	b := rz.buckets[key]
	if b == nil {
		b = rz.buckets[anonKey]
	}
	return b.take(rz.clock(), rz.opts.Rate, rz.burst)
}

// acquire claims an in-flight slot without blocking; release returns
// it. Both are O(1) on the hot path.
func (rz *resilience) acquire() bool {
	if rz.sem != nil {
		select {
		case rz.sem <- struct{}{}:
		default:
			return false
		}
	}
	rz.inFlight.Add(1)
	return true
}

func (rz *resilience) release() {
	rz.inFlight.Add(-1)
	if rz.sem != nil {
		<-rz.sem
	}
}

// retryAfterHeader sets the Retry-After hint, rounding d up to whole
// seconds (the header's granularity), minimum 1.
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// wrap applies the middleware stack around the service mux.
func (rz *resilience) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every response carries a request ID — the inbound one when the
		// client sent a header-safe value, a fresh one otherwise. It is
		// set on the shared header map up front so error envelopes and
		// the access log can read it back without extra plumbing.
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID(reqID) {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		// Every request carries a stage trace: pipeline spans feed the
		// stage histograms through the sink, and the completed trace
		// rides into the flight recorder with the request record.
		tr := obs.NewTrace(rz.met.stageSink())
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		// Registered before the recovery defer: LIFO runs it after
		// recoverPanic has turned a panic into the 500 it records.
		t0 := time.Now()
		defer rz.record(sw, r, reqID, t0, tr)
		defer rz.recoverPanic(sw)
		if r.URL.Path == "/healthz" {
			// The liveness probe bypasses every limit: an orchestrator
			// must be able to tell "overloaded" from "dead".
			next.ServeHTTP(sw, r)
			return
		}
		key, ok := rz.client(r)
		if !ok {
			rz.rejectedAuth.Inc()
			sw.Header().Set("WWW-Authenticate", "Bearer")
			writeErrReason(sw, http.StatusUnauthorized, reasonUnauthorized, "missing or unknown API key")
			return
		}
		if ok, wait := rz.allow(key); !ok {
			rz.rejectedRate.Inc()
			retryAfterHeader(sw, wait)
			writeErrReason(sw, http.StatusTooManyRequests, reasonRateLimited, "client rate limit exceeded")
			return
		}
		if !rz.acquire() {
			rz.rejectedOverload.Inc()
			retryAfterHeader(sw, retryAfter)
			writeErrReason(sw, http.StatusTooManyRequests,
				reasonOverloaded, "server at capacity (%d requests in flight)", rz.opts.MaxInFlight)
			return
		}
		defer rz.release()
		if d := rz.opts.RequestTimeout; d > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(sw, r.WithContext(ctx))
			if ctx.Err() == context.DeadlineExceeded && !sw.wrote {
				// The handler gave up on the expired context without
				// answering (handlers that classify the error themselves,
				// like /v1/link, have written 503 already and count below).
				rz.timeouts.Inc()
				retryAfterHeader(sw, retryAfter)
				writeErrReason(sw, http.StatusServiceUnavailable,
					reasonTimeout, "request exceeded the %s server deadline", d)
			}
			return
		}
		next.ServeHTTP(sw, r)
	})
}

// record lands one finished request in the endpoint metrics, the flight
// recorder and, when configured, the structured access log. Runs after
// panic recovery, so recovered 500s are counted like any other
// response.
func (rz *resilience) record(sw *statusWriter, r *http.Request, reqID string, t0 time.Time, tr *obs.Trace) {
	code := sw.status
	if !sw.wrote {
		code = http.StatusOK // a handler that wrote nothing: net/http sends 200
	}
	d := time.Since(t0)
	path := normalizePath(r.URL.Path)
	rz.met.requests.With(path, strconv.Itoa(code)).Inc()
	rz.met.duration.With(path).Observe(d.Seconds())
	rz.met.respBytes.With(path).Observe(float64(sw.bytes))
	client := hashKey(presentedKey(r))
	stages := tr.Stages()
	rz.flight.Observe(obs.RequestRecord{
		ID:       reqID,
		Method:   r.Method,
		Path:     r.URL.Path,
		Status:   code,
		Reason:   sw.reason,
		Client:   client,
		Start:    t0,
		Duration: d,
		Bytes:    sw.bytes,
		Stages:   stages,
	})
	if rz.log != nil {
		level := slog.LevelInfo
		msg := "request"
		var extra []slog.Attr
		if th := rz.flight.SlowThreshold(); th > 0 && d >= th {
			// Slow requests get their own structured line — warning level,
			// with the stage breakdown inlined, so "why was this slow" is
			// answerable from the log alone.
			level, msg = slog.LevelWarn, "slow request"
			for _, st := range stages {
				extra = append(extra, slog.Duration("stage_"+st.Name, st.Duration))
			}
		}
		attrs := append([]slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Duration("duration", d),
			slog.Int64("bytes", sw.bytes),
			slog.String("client", client),
			slog.String("request_id", reqID),
		}, extra...)
		rz.log.LogAttrs(context.Background(), level, msg, attrs...)
	}
}

// recoverPanic turns a handler panic into a 500 (when nothing was
// written yet) and keeps the server alive. http.ErrAbortHandler keeps
// its contract of abruptly closing the connection.
func (rz *resilience) recoverPanic(w *statusWriter) {
	p := recover()
	if p == nil {
		return
	}
	if err, ok := p.(error); ok && err == http.ErrAbortHandler {
		panic(p)
	}
	rz.panics.Inc()
	if !w.wrote {
		// The panic value stays out of the response: it may contain
		// internal state. It is preserved for operators via the panics
		// counter in /v1/status.
		writeErrReason(w, http.StatusInternalServerError, reasonPanic, "internal error")
	}
}

// statusWriter tracks whether a response has been started (so the
// recovery and deadline layers know if they may still write an error),
// plus the status and body size the metrics and access log record.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
	bytes  int64
	// reason is the machine-readable rejection token of the error
	// envelope, captured by writeErrReason for the flight recorder.
	reason string
}

// setReason records the rejection reason; writeErrReason finds it via
// interface assertion so handlers need no direct statusWriter coupling.
func (w *statusWriter) setReason(reason string) { w.reason = reason }

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.status = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.status = true, http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush keeps streaming handlers working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// resilienceJSON is the /v1/status view of the middleware: active
// limits and rejection counters.
type resilienceJSON struct {
	InFlight         int64   `json:"in_flight"`
	MaxInFlight      int     `json:"max_in_flight,omitempty"`
	RequestTimeoutMS int64   `json:"request_timeout_ms,omitempty"`
	Rate             float64 `json:"rate,omitempty"`
	Burst            int     `json:"burst,omitempty"`
	StrictAuth       bool    `json:"strict_auth,omitempty"`
	APIKeys          int     `json:"api_keys,omitempty"`
	RejectedOverload uint64  `json:"rejected_overload"`
	RejectedRate     uint64  `json:"rejected_rate"`
	RejectedAuth     uint64  `json:"rejected_auth"`
	Timeouts         uint64  `json:"timeouts"`
	Panics           uint64  `json:"panics"`
}

func (rz *resilience) statusJSON() *resilienceJSON {
	j := &resilienceJSON{
		InFlight:         rz.inFlight.Value(),
		MaxInFlight:      rz.opts.MaxInFlight,
		Rate:             rz.opts.Rate,
		StrictAuth:       rz.opts.StrictAuth,
		APIKeys:          len(rz.buckets) - 1, // minus the anonymous bucket
		RejectedOverload: rz.rejectedOverload.Value(),
		RejectedRate:     rz.rejectedRate.Value(),
		RejectedAuth:     rz.rejectedAuth.Value(),
		Timeouts:         rz.timeouts.Value(),
		Panics:           rz.panics.Value(),
	}
	if rz.opts.Rate > 0 {
		j.Burst = int(rz.burst)
	}
	if rz.opts.RequestTimeout > 0 {
		j.RequestTimeoutMS = rz.opts.RequestTimeout.Milliseconds()
	}
	return j
}

// degradedState reports whether the store has fail-stopped, and why.
// Ephemeral services are never degraded.
func (s *Service) degradedState() (bool, string) {
	if s.st == nil {
		return false, ""
	}
	if err := s.st.Failed(); err != nil {
		return true, err.Error()
	}
	return false, ""
}

// checkDegradedLocked rejects a mutation up front when the store has
// already fail-stopped: the WAL cannot accept the record, so failing
// fast (before building state) keeps the read path fully responsive.
// Callers hold the write lock.
func (s *Service) checkDegradedLocked() error {
	if s.st == nil {
		return nil
	}
	if err := s.st.Failed(); err != nil {
		return fmt.Errorf("%w: %v", errDegraded, err)
	}
	return nil
}
