package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"unicode/utf8"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope. Reason, when set, is a
// stable machine-readable token (see resilience.go) so clients can
// react to overload, degradation and auth failures without parsing the
// human-readable message. RequestID echoes the X-Request-ID header so
// an error response alone is enough to find the matching access-log
// line.
type errorBody struct {
	Error     string `json:"error"`
	Reason    string `json:"reason,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// writeErrReason writes the error envelope with a machine-readable
// reason token. The token is also recorded on the response writer (when
// it is the middleware's statusWriter), so the flight recorder keeps
// rejections with their reason attached.
func writeErrReason(w http.ResponseWriter, code int, reason, format string, args ...any) {
	if rw, ok := w.(interface{ setReason(string) }); ok {
		rw.setReason(reason)
	}
	writeJSON(w, code, errorBody{
		Error:     fmt.Sprintf(format, args...),
		Reason:    reason,
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// writeCommitErr classifies a failed mutation commit: a store that
// fail-stopped earlier rejects the mutation up front (degraded
// read-only mode — restart to recover), a fresh WAL append failure is
// the moment the store fail-stops. Both are 503s the client must not
// retry against this process; anything else is the mutation itself
// failing (learning can) and stays a 400.
func writeCommitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDegraded):
		writeErrReason(w, http.StatusServiceUnavailable, reasonDegraded,
			"service is degraded read-only: %v", err)
	case errors.Is(err, errPersist):
		writeErrReason(w, http.StatusServiceUnavailable, reasonPersist, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

// decode parses a JSON request body strictly (unknown fields are
// rejected, catching typo'd options early) under the service's size cap
// (Options.MaxBodyBytes, default 8 MiB): http.MaxBytesReader stops
// reading at the cap, so an oversized body is rejected with 413 instead
// of being read on. A body that is not valid UTF-8 is a 400, as on the
// bulk path: encoding/json would store each invalid byte as U+FFFD. The
// body must be exactly one JSON value: trailing data after it — which
// json.Decoder would otherwise silently ignore, accepting e.g. two
// concatenated objects and applying only the first — is a 400.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeDecodeErr(w, err, "reading request: %v", err)
		return false
	}
	if !utf8.Valid(body) {
		writeErr(w, http.StatusBadRequest, "decoding request: invalid UTF-8")
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeDecodeErr(w, err, "decoding request: %v", err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeDecodeErr(w, err, "decoding request: trailing data after JSON body")
		return false
	}
	return true
}

// writeDecodeErr classifies a body-decoding failure: hitting the
// MaxBytesReader cap is 413, anything else is a 400 with the given
// message.
func writeDecodeErr(w http.ResponseWriter, err error, format string, args ...any) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, format, args...)
}

// parseSide maps the wire name to a Side.
func parseSide(s string) (datalink.Side, error) {
	switch s {
	case "external":
		return datalink.ExternalSide, nil
	case "local":
		return datalink.LocalSide, nil
	default:
		return 0, fmt.Errorf("side must be %q or %q, got %q", "external", "local", s)
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statusResponse reports corpus, model and durability state.
type statusResponse struct {
	ExternalTriples int             `json:"external_triples"`
	LocalTriples    int             `json:"local_triples"`
	ExternalVersion uint64          `json:"external_version"`
	LocalVersion    uint64          `json:"local_version"`
	TrainingLinks   int             `json:"training_links"`
	Learned         bool            `json:"learned"`
	Rules           int             `json:"rules"`
	Measures        []string        `json:"measures"`
	Durability      *durabilityJSON `json:"durability,omitempty"`
	// Degraded reports that the store fail-stopped: reads keep serving
	// from the published bundle, mutations are rejected with 503 until
	// the process is restarted and recovers.
	Degraded       bool            `json:"degraded,omitempty"`
	DegradedReason string          `json:"degraded_reason,omitempty"`
	Resilience     *resilienceJSON `json:"resilience,omitempty"`
}

// durabilityJSON is the status view of the store: WAL and snapshot
// counters plus the last checkpoint failure, if any.
type durabilityJSON struct {
	store.Stats
	Dir                 string `json:"dir"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

func (s *Service) handleStatus(w http.ResponseWriter, _ *http.Request) {
	qs := s.state.Load()
	resp := statusResponse{
		ExternalTriples: qs.se.Len(),
		LocalTriples:    qs.sl.Len(),
		ExternalVersion: qs.se.Version(),
		LocalVersion:    qs.sl.Version(),
		TrainingLinks:   qs.links,
		Learned:         qs.view != nil,
		Measures:        MeasureNames(),
	}
	if qs.view != nil {
		resp.Rules = qs.view.Model().Rules.Len()
	}
	if s.st != nil {
		resp.Durability = &durabilityJSON{
			Stats:               s.st.Stats(),
			Dir:                 s.st.Dir(),
			LastCheckpointError: s.lastCheckpointError(),
		}
		resp.Degraded, resp.DegradedReason = s.degradedState()
	}
	resp.Resilience = s.res.statusJSON()
	writeJSON(w, http.StatusOK, resp)
}

// itemSpec is the wire form of one item description: its IRI, literal
// property values, and (local side only) its ontology classes.
type itemSpec struct {
	ID         string              `json:"id"`
	Properties map[string][]string `json:"properties"`
	Classes    []string            `json:"classes,omitempty"`
}

type upsertRequest struct {
	Side  string     `json:"side"`
	Items []itemSpec `json:"items"`
}

type upsertResponse struct {
	Upserted int    `json:"upserted"`
	Version  uint64 `json:"version"`
}

func (s *Service) handleUpsert(w http.ResponseWriter, r *http.Request) {
	var req upsertRequest
	if !s.decode(w, r, &req) {
		return
	}
	side, err := parseSide(req.Side)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Items) == 0 {
		writeErr(w, http.StatusBadRequest, "no items given")
		return
	}
	// Validate the whole batch before building the mutation record, so a
	// 400 response means nothing was logged or changed.
	items := make([]store.Item, 0, len(req.Items))
	for i, it := range req.Items {
		if it.ID == "" {
			writeErr(w, http.StatusBadRequest, "item %d: id is required", i)
			return
		}
		if err := validateItem(side, datalink.NewIRI(it.ID), it.Properties, it.Classes); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		items = append(items, store.Item{ID: it.ID, Props: it.Properties, Classes: it.Classes})
	}
	res, err := s.commit(r.Context(), &store.Record{
		Op:     store.OpUpsert,
		Upsert: &store.UpsertOp{Side: sideToStore(side), Items: items},
	})
	if err != nil {
		writeCommitErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, upsertResponse{Upserted: res.upserted, Version: res.version})
}

type removeRequest struct {
	Side string   `json:"side"`
	IDs  []string `json:"ids"`
}

type removeResponse struct {
	Removed int    `json:"removed"`
	Version uint64 `json:"version"`
	// PurgedLinks counts training links dropped because their endpoint
	// on this side was removed — otherwise the next learn would
	// resurrect ghost items into the model.
	PurgedLinks int `json:"purged_links"`
}

func (s *Service) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !s.decode(w, r, &req) {
		return
	}
	side, err := parseSide(req.Side)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.IDs) == 0 {
		writeErr(w, http.StatusBadRequest, "no ids given")
		return
	}
	res, err := s.commit(r.Context(), &store.Record{
		Op:     store.OpRemove,
		Remove: &store.RemoveOp{Side: sideToStore(side), IDs: req.IDs},
	})
	if err != nil {
		writeCommitErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, removeResponse{Removed: res.removed, Version: res.version, PurgedLinks: res.purged})
}

// purgeLinksLocked drops accumulated training links whose endpoint on
// the given side is in gone, returning how many were dropped. Without
// this, removed items linger in the training set and the next learn
// resurrects them into the model. Callers must hold the write lock.
func (s *Service) purgeLinksLocked(side datalink.Side, gone map[datalink.Term]struct{}) int {
	kept := make([]datalink.Link, 0, len(s.links))
	for _, l := range s.links {
		end := l.External
		if side == datalink.LocalSide {
			end = l.Local
		}
		if _, dead := gone[end]; dead {
			continue
		}
		kept = append(kept, l)
	}
	purged := len(s.links) - len(kept)
	s.links = kept
	return purged
}

// linkSpec is the wire form of one labeled same-as link.
type linkSpec struct {
	External string `json:"external"`
	Local    string `json:"local"`
}

type learnRequest struct {
	Links []linkSpec `json:"links"`
	// Replace discards previously accumulated links instead of extending
	// them.
	Replace bool `json:"replace,omitempty"`
}

type learnResponse struct {
	TrainingLinks int `json:"training_links"`
	Rules         int `json:"rules"`
	Segments      int `json:"segments"`
	// Timings is the per-stage breakdown of this learn (learn, publish),
	// present only when the client asked for ?debug=timings — parity
	// with /v1/link.
	Timings []stageJSON `json:"timings,omitempty"`
}

func (s *Service) handleLearn(w http.ResponseWriter, r *http.Request) {
	var req learnRequest
	if !s.decode(w, r, &req) {
		return
	}
	refs := make([]store.LinkRef, 0, len(req.Links))
	for i, l := range req.Links {
		if l.External == "" || l.Local == "" {
			writeErr(w, http.StatusBadRequest, "link %d: external and local are required", i)
			return
		}
		refs = append(refs, refFromLink(datalink.Link{
			External: datalink.NewIRI(l.External),
			Local:    datalink.NewIRI(l.Local),
		}))
	}
	// The middleware attached a trace to the request context, so the
	// learn and publish stages inside commit land in it (and in the
	// flight recorder); reuse it for the opt-in client breakdown.
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace(s.met.stageSink())
		ctx = obs.WithTrace(ctx, tr)
	}
	res, err := s.commit(ctx, &store.Record{
		Op:    store.OpLearn,
		Learn: &store.LearnOp{Replace: req.Replace, Links: refs},
	})
	if err != nil {
		writeCommitErr(w, err)
		return
	}
	resp := learnResponse{
		TrainingLinks: res.links,
		Rules:         res.rules,
		Segments:      res.segments,
	}
	if r.URL.Query().Get("debug") == "timings" {
		for _, st := range tr.Stages() {
			resp.Timings = append(resp.Timings, stageJSON{Stage: st.Name, Seconds: st.Duration.Seconds()})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ruleJSON is the wire form of one learned rule.
type ruleJSON struct {
	Property   string  `json:"property"`
	Segment    string  `json:"segment"`
	Class      string  `json:"class"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
	Text       string  `json:"text"`
}

func (s *Service) handleRules(w http.ResponseWriter, _ *http.Request) {
	qs := s.state.Load()
	if qs.view == nil {
		writeErr(w, http.StatusConflict, "no model learned yet; POST /v1/learn first")
		return
	}
	rules := qs.view.Model().Rules.Rules
	out := make([]ruleJSON, 0, len(rules))
	for _, rl := range rules {
		out = append(out, ruleJSON{
			Property:   rl.Property.Value,
			Segment:    rl.Segment,
			Class:      rl.Class.Value,
			Support:    rl.Support(),
			Confidence: rl.Confidence(),
			Lift:       rl.Lift(),
			Text:       rl.String(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": out})
}

type linkRequest struct {
	// Items restricts the query; empty means every external item.
	Items []string `json:"items"`
	// Threshold overrides the default linker threshold when set.
	Threshold *float64 `json:"threshold,omitempty"`
	// Workers overrides the scoring fan-out when set; 0 means all cores.
	Workers *int `json:"workers,omitempty"`
	// TopK caps the matches returned per item; 0 means all above the
	// threshold.
	TopK int `json:"top_k,omitempty"`
	// Comparators override Options.DefaultLinker's comparators.
	Comparators []comparatorSpec `json:"comparators,omitempty"`
}

type matchJSON struct {
	Local string  `json:"local"`
	Score float64 `json:"score"`
}

type linkResult struct {
	Item    string      `json:"item"`
	Matches []matchJSON `json:"matches"`
}

// stageJSON is one entry of the ?debug=timings breakdown.
type stageJSON struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

type linkResponse struct {
	Results []linkResult `json:"results"`
	// Timings is the per-stage breakdown of this query, present only
	// when the client asked for ?debug=timings.
	Timings []stageJSON `json:"timings,omitempty"`
	// Counts is the query's work (datalink.CountLink*: candidates, pairs
	// scored, pruned and skipped, items that fired no rule), present
	// only when the client asked for ?debug=timings. /metrics exports
	// the same names as linkrules_<name>_total.
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *Service) handleLink(w http.ResponseWriter, r *http.Request) {
	var req linkRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Load the published snapshot bundle and run the whole query against
	// it — no service lock is taken, so concurrent mutations proceed
	// undelayed and this query observes one consistent corpus.
	qs := s.state.Load()
	if qs.view == nil {
		writeErr(w, http.StatusConflict, "no model learned yet; POST /v1/learn first")
		return
	}
	cfg := s.opts.DefaultLinker
	if len(req.Comparators) > 0 {
		comps, err := compileComparators(req.Comparators)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		cfg.Comparators = comps
	}
	if len(cfg.Comparators) == 0 {
		writeErr(w, http.StatusBadRequest, "no comparators: set them in the request or configure a default linker")
		return
	}
	if req.Threshold != nil {
		cfg.Threshold = *req.Threshold
	}
	if req.Workers != nil {
		cfg.Workers = *req.Workers
	}
	var items []datalink.Term
	if len(req.Items) > 0 {
		items = make([]datalink.Term, 0, len(req.Items))
		for _, id := range req.Items {
			items = append(items, datalink.NewIRI(id))
		}
	} else {
		items = qs.se.AllSubjects()
	}
	// Every link query carries a stage trace: its spans always feed the
	// stage histograms, and with ?debug=timings the breakdown is also
	// returned to the client. The middleware attaches the trace; the
	// fallback covers handlers driven without the resilience wrap.
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace(s.met.stageSink())
		ctx = obs.WithTrace(ctx, tr)
	}
	// The request context threads through the engine's worker pool: a
	// dropped connection cancels in-flight scoring.
	topk, err := qs.view.LinkTopK(ctx, items, cfg, req.TopK)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The server-imposed request deadline expired mid-scoring:
			// overload shedding, not a client problem, so tell the client
			// when to come back.
			s.res.timeouts.Inc()
			retryAfterHeader(w, retryAfter)
			writeErrReason(w, http.StatusServiceUnavailable, reasonTimeout,
				"scoring exceeded the request deadline: %v", err)
		case errors.Is(err, context.Canceled):
			writeErr(w, 499, "request cancelled: %v", err) // 499: client closed request
		case errors.Is(err, datalink.ErrLinkerConfig):
			writeErr(w, http.StatusBadRequest, "%v", err)
		default:
			// Anything else is an internal failure, not a bad request.
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.met.addWork(tr.Counts())
	results := make([]linkResult, 0, len(topk))
	for item, ms := range topk {
		lr := linkResult{Item: item.Value, Matches: make([]matchJSON, 0, len(ms))}
		for _, m := range ms {
			lr.Matches = append(lr.Matches, matchJSON{Local: m.Local.Value, Score: m.Score})
		}
		results = append(results, lr)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Item < results[j].Item })
	resp := linkResponse{Results: results}
	if r.URL.Query().Get("debug") == "timings" {
		for _, st := range tr.Stages() {
			resp.Timings = append(resp.Timings, stageJSON{Stage: st.Name, Seconds: st.Duration.Seconds()})
		}
		resp.Counts = map[string]int64{}
		for _, c := range tr.Counts() {
			resp.Counts[c.Name] = c.N
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshotResponse reports a forced checkpoint.
type snapshotResponse struct {
	SnapshotSeq uint64      `json:"snapshot_seq"`
	Stats       store.Stats `json:"stats"`
}

// handleAdminSnapshot forces a durability checkpoint: rotate the WAL,
// snapshot the published state, prune superseded files. 409 when the
// service is ephemeral or a checkpoint is already running (the latter
// with a Retry-After hint — the in-flight one will finish), 503 when
// the store has fail-stopped.
func (s *Service) handleAdminSnapshot(w http.ResponseWriter, _ *http.Request) {
	stats, err := s.Checkpoint()
	switch {
	case errors.Is(err, ErrCheckpointBusy):
		retryAfterHeader(w, retryAfter)
		writeErrReason(w, http.StatusConflict, reasonBusy, "%v", err)
		return
	case errors.Is(err, ErrNotDurable):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		if s.st != nil && s.st.Failed() != nil {
			writeErrReason(w, http.StatusServiceUnavailable, reasonDegraded,
				"checkpoint: %v (service is degraded read-only)", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{SnapshotSeq: stats.LastSnapshotSeq, Stats: stats})
}
