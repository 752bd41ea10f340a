package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// scrapeMetrics fetches /metrics through the full handler stack and
// lints the exposition format.
func scrapeMetrics(t *testing.T, h http.Handler, key string) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain exposition", ct)
	}
	text := rec.Body.String()
	for _, err := range obs.Lint(text) {
		t.Error(err)
	}
	return text
}

// metricValue extracts one sample's value from exposition text; the
// series must appear exactly once.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	var found []float64
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			found = append(found, v)
		}
	}
	if len(found) != 1 {
		t.Fatalf("series %s: found %d samples, want 1", series, len(found))
	}
	return found[0]
}

// TestStatusMetricsParity runs a scripted workload producing successes
// and every reachable rejection kind, then asserts the /v1/status
// resilience block and /metrics report identical values — the ISSUE's
// "must never disagree" contract.
func TestStatusMetricsParity(t *testing.T) {
	now := time.Unix(1000, 0)
	s := corpusService(t)
	res := ResilienceOptions{
		Rate:       1,
		Burst:      4,
		APIKeys:    []string{"k"},
		StrictAuth: true,
		Clock:      func() time.Time { return now },
	}
	s.opts.Resilience = res
	s.res = newResilience(res, s.met, nil)
	h := s.Handler()

	send := func(method, path, key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// Burst of 4 with a frozen clock: four authenticated requests pass,
	// the fifth is rate-limited.
	for i := 0; i < 4; i++ {
		if rec := send("GET", "/v1/status", "k"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := send("GET", "/v1/status", "k"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over burst: %d, want 429", rec.Code)
	}
	// Strict auth: a missing and an unknown key are both rejected.
	if rec := send("GET", "/v1/status", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("missing key: %d, want 401", rec.Code)
	}
	if rec := send("GET", "/v1/status", "wrong"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", rec.Code)
	}

	// Refill and take both views back to back. The counters compared do
	// not move between the two reads.
	now = now.Add(time.Hour)
	req := httptest.NewRequest("GET", "/v1/status", nil)
	req.Header.Set("X-API-Key", "k")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after refill: %d %s", rec.Code, rec.Body)
	}
	var status statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	r := status.Resilience
	if r == nil {
		t.Fatal("status has no resilience block")
	}
	if r.RejectedRate != 1 || r.RejectedAuth != 2 {
		t.Fatalf("workload produced unexpected rejections: %+v", r)
	}

	text := scrapeMetrics(t, h, "k")
	pairs := []struct {
		series string
		status uint64
	}{
		{`linkrules_http_rejected_total{reason="rate_limited"}`, r.RejectedRate},
		{`linkrules_http_rejected_total{reason="unauthorized"}`, r.RejectedAuth},
		{`linkrules_http_rejected_total{reason="overloaded"}`, r.RejectedOverload},
		{`linkrules_http_timeouts_total`, r.Timeouts},
		{`linkrules_http_panics_total`, r.Panics},
		{`linkrules_http_in_flight`, uint64(r.InFlight)},
	}
	for _, p := range pairs {
		if got := metricValue(t, text, p.series); uint64(got) != p.status {
			t.Errorf("%s = %v but /v1/status reports %d", p.series, got, p.status)
		}
	}
}

// syncBuffer is a goroutine-safe buffer for capturing log output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func newJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// TestMetricsCoverAllLayers drives the service end to end and asserts
// /metrics carries service-, store- and pipeline-level families in
// valid exposition format.
func TestMetricsCoverAllLayers(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, rec, err := store.Open(dir, store.Options{Metrics: store.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	opts := durableOpts()
	opts.Metrics = reg
	svc, err := Restore(st, rec, corpusSeed(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()

	var lr linkResponse
	if rec := call(t, h, "POST", "/v1/link", linkRequest{TopK: 1}, &lr); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, h, "POST", "/v1/admin/snapshot", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", rec.Code, rec.Body)
	}

	text := scrapeMetrics(t, h, "")
	for _, want := range []string{
		// service layer
		`linkrules_http_requests_total{path="/v1/link",code="200"} 1`,
		"linkrules_http_request_seconds_bucket",
		"linkrules_http_in_flight 1", // the scrape itself
		// pipeline layer (stage histograms observed by the link query)
		`linkrules_stage_seconds_count{stage="scoring"} 1`,
		`linkrules_stage_seconds_count{stage="blocking"} 1`,
		`linkrules_stage_seconds_count{stage="engine"} 1`,
		`linkrules_stage_seconds_count{stage="learn"}`,
		`linkrules_stage_seconds_count{stage="publish"}`,
		// pipeline work counters (the same link query)
		"linkrules_link_candidates_total",
		"linkrules_link_pairs_scored_total",
		"linkrules_link_pairs_pruned_total",
		"linkrules_link_pairs_skipped_total",
		"linkrules_link_items_no_rule_total",
		// store layer
		"linkrules_wal_appends_total",
		"linkrules_wal_fsync_seconds_count",
		"linkrules_checkpoint_seconds_count",
		"linkrules_store_degraded 0",
		"linkrules_recovery_replayed_records 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	// Every candidate pair is scored, pruned by its own bound, or
	// skipped with its length band.
	cands := metricValue(t, text, "linkrules_link_candidates_total")
	scored := metricValue(t, text, "linkrules_link_pairs_scored_total")
	pruned := metricValue(t, text, "linkrules_link_pairs_pruned_total")
	skipped := metricValue(t, text, "linkrules_link_pairs_skipped_total")
	if cands == 0 || scored+pruned+skipped != cands {
		t.Errorf("candidates %v, scored %v + pruned %v + skipped %v: want a non-empty, fully accounted space", cands, scored, pruned, skipped)
	}
	// The store Func gauges must mirror Stats() — same source, no drift.
	stats := svc.Store().Stats()
	if got := metricValue(t, text, "linkrules_store_last_snapshot_seq"); uint64(got) != stats.LastSnapshotSeq {
		t.Errorf("last_snapshot_seq metric = %v, stats = %d", got, stats.LastSnapshotSeq)
	}
	if got := metricValue(t, text, "linkrules_store_checkpoints_total"); uint64(got) != stats.Checkpoints {
		t.Errorf("checkpoints metric = %v, stats = %d", got, stats.Checkpoints)
	}
}

// TestLinkDebugTimings asserts ?debug=timings returns the stage
// breakdown and the work counters, and that the plain response omits
// both.
func TestLinkDebugTimings(t *testing.T) {
	h := corpusService(t).Handler()
	if rec := call(t, h, "POST", "/v1/learn", learnBody(10), nil); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	var plain linkResponse
	if rec := call(t, h, "POST", "/v1/link", linkRequest{TopK: 1}, &plain); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	if len(plain.Timings) != 0 || plain.Counts != nil {
		t.Errorf("undebugged link response carries timings or counts: %+v %+v", plain.Timings, plain.Counts)
	}
	var dbg linkResponse
	if rec := call(t, h, "POST", "/v1/link?debug=timings", linkRequest{TopK: 1}, &dbg); rec.Code != http.StatusOK {
		t.Fatalf("link?debug=timings: %d %s", rec.Code, rec.Body)
	}
	got := map[string]bool{}
	for _, st := range dbg.Timings {
		got[st.Stage] = true
		if st.Seconds < 0 {
			t.Errorf("stage %s has negative duration", st.Stage)
		}
	}
	for _, stage := range []string{"engine", "blocking", "scoring"} {
		if !got[stage] {
			t.Errorf("timings missing stage %q (got %+v)", stage, dbg.Timings)
		}
	}
	c := dbg.Counts
	if len(c) != 5 || c[datalink.CountLinkCandidates] == 0 ||
		c[datalink.CountLinkPairsScored]+c[datalink.CountLinkPairsPruned]+c[datalink.CountLinkPairsSkipped] != c[datalink.CountLinkCandidates] {
		t.Errorf("counts = %v, want the five link work counters over a non-empty, fully accounted space", c)
	}
}

// TestPprofGatedByAuth asserts /debug/pprof is only mounted with
// EnablePprof and sits behind the same strict-auth wall as the API.
func TestPprofGatedByAuth(t *testing.T) {
	s := corpusService(t)
	s.opts.EnablePprof = true
	res := ResilienceOptions{APIKeys: []string{"secret"}, StrictAuth: true}
	s.opts.Resilience = res
	s.res = newResilience(res, s.met, nil)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated pprof: %d, want 401", rec.Code)
	}
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	req.Header.Set("X-API-Key", "secret")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("authenticated pprof index: %d %s", rec.Code, rec.Body)
	}

	// Without the flag the profiler is not mounted at all.
	off := corpusService(t).Handler()
	rec = httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: %d, want 404", rec.Code)
	}
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRequestIDs pins the correlation contract: every response carries
// X-Request-ID (generated, or the inbound one when header-safe), and
// error envelopes echo it.
func TestRequestIDs(t *testing.T) {
	h := corpusService(t).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	if id := rec.Header().Get("X-Request-ID"); !hexID.MatchString(id) {
		t.Errorf("generated request ID = %q, want 16 hex digits", id)
	}

	req := httptest.NewRequest("GET", "/v1/status", nil)
	req.Header.Set("X-Request-ID", "trace-abc.123")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); id != "trace-abc.123" {
		t.Errorf("inbound request ID not honored: got %q", id)
	}

	req = httptest.NewRequest("GET", "/v1/status", nil)
	req.Header.Set("X-Request-ID", "bad id\x01"+strings.Repeat("x", 100))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); !hexID.MatchString(id) {
		t.Errorf("hostile inbound ID was echoed: %q", id)
	}

	// Error envelopes carry the ID for log correlation.
	req = httptest.NewRequest("GET", "/v1/rules", nil) // 409: nothing learned
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("rules before learn: %d, want 409", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID == "" || body.RequestID != rec.Header().Get("X-Request-ID") {
		t.Errorf("error envelope request_id = %q, header = %q",
			body.RequestID, rec.Header().Get("X-Request-ID"))
	}
}

// TestConcurrentScrapeUnderLoad hammers queries, relearns and scrapes
// concurrently; run under -race this pins the lock-free observe path
// against the locked exposition path, and the model and catalog gauges
// against learns that swap the model.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	h := corpusService(t).Handler()
	if rec := call(t, h, "POST", "/v1/learn", learnBody(10), nil); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch w % 4 {
				case 0:
					rec := call(t, h, "POST", "/v1/link",
						linkRequest{Items: []string{fmt.Sprintf("http://ex.org/e/r%d", i%10)}, TopK: 1}, nil)
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("link: %d", rec.Code)
					}
				case 1:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("metrics: %d", rec.Code)
					}
				case 3:
					body := learnBody(5 + i%5)
					body.Replace = true
					if rec := call(t, h, "POST", "/v1/learn", body, nil); rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("learn: %d", rec.Code)
					}
				default:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("status: %d", rec.Code)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// A final scrape must still be valid exposition format.
	scrapeMetrics(t, h, "")
}

// TestAccessLog asserts the structured log line carries the documented
// fields with the client key hashed, never verbatim.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	s := corpusService(t)
	s.res = newResilience(ResilienceOptions{}, s.met, newJSONLogger(&buf))
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/status", nil)
	req.Header.Set("X-API-Key", "super-secret-key")
	req.Header.Set("X-Request-ID", "req-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	line := buf.String()
	for _, want := range []string{
		`"method":"GET"`, `"path":"/v1/status"`, `"status":200`, `"request_id":"req-42"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line missing %s: %s", want, line)
		}
	}
	if strings.Contains(line, "super-secret-key") {
		t.Errorf("access log leaks the raw API key: %s", line)
	}
	if !strings.Contains(line, `"client":"`+hashKey("super-secret-key")+`"`) {
		t.Errorf("access log missing hashed client key: %s", line)
	}
}

// TestModelAndCatalogMetrics checks the model and catalog gauges against
// the served state before and after learns, and that only the first
// learn builds the catalog indexes: a second learn without catalog churn
// leaves linkrules_catalog_index_builds_total at 1. A durable restart
// builds them once more, when it installs the recovered model.
func TestModelAndCatalogMetrics(t *testing.T) {
	seed := corpusSeed(t)
	s := New(seed.External, seed.Local, seed.Ontology, durableOpts())
	h := s.Handler()
	text := scrapeMetrics(t, h, "")
	for _, series := range []string{
		"linkrules_model_rules", "linkrules_model_classes", "linkrules_model_training_links",
		"linkrules_model_learned_unix", "linkrules_catalog_ids", "linkrules_catalog_instances",
		"linkrules_catalog_index_builds_total",
	} {
		if v := metricValue(t, text, series); v != 0 {
			t.Errorf("before any learn: %s = %v, want 0", series, v)
		}
	}

	before := time.Now().Unix()
	check := func(step string, links int) {
		t.Helper()
		var lr learnResponse
		body := learnRequest{Replace: true}
		for _, l := range seed.Training[:links] {
			body.Links = append(body.Links, linkSpec{External: l.External.Value, Local: l.Local.Value})
		}
		if rec := call(t, h, http.MethodPost, "/v1/learn", body, &lr); rec.Code != http.StatusOK {
			t.Fatalf("%s: learn: %d %s", step, rec.Code, rec.Body)
		}
		text := scrapeMetrics(t, h, "")
		m := s.state.Load().view.Model()
		for series, want := range map[string]float64{
			"linkrules_model_rules":                float64(lr.Rules),
			"linkrules_model_classes":              float64(m.Stats.ClassesWithRules),
			"linkrules_model_training_links":       float64(links),
			"linkrules_catalog_ids":                40,
			"linkrules_catalog_instances":          40,
			"linkrules_catalog_index_builds_total": 1,
		} {
			if got := metricValue(t, text, series); got != want {
				t.Errorf("%s: %s = %v, want %v", step, series, got, want)
			}
		}
		if m.Stats.ClassesWithRules != 2 {
			t.Errorf("%s: the model's rules predict %d classes, want 2", step, m.Stats.ClassesWithRules)
		}
		if got := metricValue(t, text, "linkrules_model_learned_unix"); got < float64(before) {
			t.Errorf("%s: linkrules_model_learned_unix = %v, before the learn at %d", step, got, before)
		}
	}
	check("first learn", len(seed.Training))
	check("second learn", len(seed.Training)/2)

	// A restart builds the indexes when it installs the recovered model.
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever}
	d := restoreService(t, dir, corpusSeed(t), sopts)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = restoreService(t, dir, nil, sopts)
	defer d.Close()
	if got := metricValue(t, scrapeMetrics(t, d.Handler(), ""), "linkrules_catalog_index_builds_total"); got != 1 {
		t.Errorf("after a restart: linkrules_catalog_index_builds_total = %v, want 1", got)
	}
}
