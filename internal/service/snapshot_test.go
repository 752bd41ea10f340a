package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	datalink "repro"
	"repro/internal/similarity"
	"repro/internal/store"
)

// slowExact is an exact-match measure with a deliberate per-call delay,
// for building link queries that are slow enough to overlap mutations.
type slowExact struct{ delay time.Duration }

func (m slowExact) Similarity(a, b string) float64 {
	time.Sleep(m.delay)
	if a == b {
		return 1
	}
	return 0
}

func (slowExact) Name() string { return "slow-exact" }

// twoPropService builds a service whose items carry two properties (part
// number and label), so a torn engine update would be observable as a
// half-old half-new score.
func twoPropService(t *testing.T, measure datalink.Measure) *Service {
	t.Helper()
	og := datalink.NewGraph()
	for _, c := range []string{clsRes, clsCap} {
		og.Add(datalink.T(datalink.NewIRI(c), datalink.RDFType, datalink.NewIRI("http://www.w3.org/2002/07/owl#Class")))
	}
	ol, err := datalink.OntologyFromGraph(og)
	if err != nil {
		t.Fatal(err)
	}
	se, sl := datalink.NewGraph(), datalink.NewGraph()
	add := func(g *datalink.Graph, id, pn, label string) datalink.Term {
		item := datalink.NewIRI(id)
		g.Add(datalink.T(item, datalink.NewIRI(pnProp), datalink.NewLiteral(pn)))
		g.Add(datalink.T(item, datalink.NewIRI(labelProp), datalink.NewLiteral(label)))
		return item
	}
	for i := 0; i < 20; i++ {
		loc := add(sl, fmt.Sprintf("http://ex.org/l/r%d", i), fmt.Sprintf("RES-%04d-X", i), fmt.Sprintf("L-%04d", i))
		sl.Add(datalink.T(loc, datalink.RDFType, datalink.NewIRI(clsRes)))
		add(se, fmt.Sprintf("http://ex.org/e/r%d", i), fmt.Sprintf("RES-%04d-X", i), fmt.Sprintf("L-%04d", i))
	}
	comp := func(prop string) datalink.Comparator {
		return datalink.Comparator{
			ExternalProperty: datalink.NewIRI(prop),
			LocalProperty:    datalink.NewIRI(prop),
			Measure:          measure,
			Weight:           1,
		}
	}
	return New(se, sl, ol, Options{
		Learner: datalink.LearnerConfig{SupportThreshold: 0.01},
		DefaultLinker: datalink.LinkerConfig{
			Comparators: []datalink.Comparator{comp(pnProp), comp(labelProp)},
			Threshold:   0,
		},
	})
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	h := corpusService(t).Handler()
	cases := []string{
		`{"side":"external"}{"anything":1}`,
		`{"links":[]} [1,2]`,
		`{"links":[]} garbage`,
	}
	paths := []string{"/v1/items/remove", "/v1/learn", "/v1/learn"}
	for i, body := range cases {
		req := httptest.NewRequest("POST", paths[i], strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: %d, want 400", body, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "trailing") {
			t.Errorf("body %q: error %q does not mention trailing data", body, rec.Body.String())
		}
	}
	// Trailing whitespace is still fine.
	body, err := json.Marshal(learnBody(20))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/learn", strings.NewReader(string(body)+"  \n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %s, want 200", rec.Code, rec.Body)
	}
}

// TestRemovePurgesTrainingLinks is the remove-then-learn satellite: a
// removed item's training links must not resurrect it into the model.
func TestRemovePurgesTrainingLinks(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil) // 40 links

	var rm removeResponse
	req := removeRequest{Side: "local", IDs: []string{"http://ex.org/l/r7"}}
	if rec := call(t, h, "POST", "/v1/items/remove", req, &rm); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", rec.Code, rec.Body)
	}
	if rm.Removed != 1 || rm.PurgedLinks != 1 {
		t.Fatalf("remove response %+v, want removed=1 purged_links=1", rm)
	}

	// Relearning from the accumulated links must not see the ghost.
	var lr learnResponse
	if rec := call(t, h, "POST", "/v1/learn", learnRequest{}, &lr); rec.Code != http.StatusOK {
		t.Fatalf("relearn: %d %s", rec.Code, rec.Body)
	}
	if lr.TrainingLinks != 39 {
		t.Fatalf("relearn kept %d links, want 39 (ghost purged)", lr.TrainingLinks)
	}

	// External-side removal purges on the external endpoint.
	req = removeRequest{Side: "external", IDs: []string{"http://ex.org/e/c3", "http://ex.org/e/absent"}}
	if rec := call(t, h, "POST", "/v1/items/remove", req, &rm); rec.Code != http.StatusOK {
		t.Fatalf("remove external: %d %+v", rec.Code, rm)
	}
	if rm.Removed != 1 || rm.PurgedLinks != 1 {
		t.Fatalf("external remove response %+v, want removed=1 purged_links=1", rm)
	}
	var st statusResponse
	call(t, h, "GET", "/v1/status", nil, &st)
	if st.TrainingLinks != 38 {
		t.Fatalf("status reports %d links, want 38", st.TrainingLinks)
	}
}

// TestLinkErrorClassification: configuration mistakes are 400s, not
// blanket client errors for every engine failure.
func TestLinkErrorClassification(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)

	badThreshold := 2.0
	if rec := call(t, h, "POST", "/v1/link", linkRequest{Threshold: &badThreshold}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("threshold 2.0: %d, want 400", rec.Code)
	}
	badWorkers := -3
	if rec := call(t, h, "POST", "/v1/link", linkRequest{Workers: &badWorkers}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("workers -3: %d, want 400", rec.Code)
	}
}

// TestSlowQueryDoesNotBlockUpsert is the tentpole's acceptance test: a
// deliberately slow link query must not delay a concurrent upsert,
// because queries hold no service lock while scoring.
func TestSlowQueryDoesNotBlockUpsert(t *testing.T) {
	svc := twoPropService(t, slowExact{delay: 2 * time.Millisecond})
	h := svc.Handler()
	var links learnRequest
	for i := 0; i < 20; i++ {
		links.Links = append(links.Links, linkSpec{
			External: fmt.Sprintf("http://ex.org/e/r%d", i),
			Local:    fmt.Sprintf("http://ex.org/l/r%d", i),
		})
	}
	call(t, h, "POST", "/v1/learn", links, nil)

	// The slow query: 10 items x ~20 candidates x 2 comparators x 2ms
	// of deliberate measure latency, serialized on one worker.
	items := make([]string, 10)
	for i := range items {
		items[i] = fmt.Sprintf("http://ex.org/e/r%d", i)
	}
	one := 1
	qb, _ := json.Marshal(linkRequest{Items: items, TopK: 1, Workers: &one})

	var queryDone atomic.Bool
	queryErr := make(chan string, 1)
	go func() {
		req := httptest.NewRequest("POST", "/v1/link", bytes.NewReader(qb))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		queryDone.Store(true)
		if rec.Code != http.StatusOK {
			queryErr <- fmt.Sprintf("slow link: %d %s", rec.Code, rec.Body.String())
		}
		close(queryErr)
	}()

	time.Sleep(50 * time.Millisecond) // let the query get in flight
	up := upsertRequest{Side: "local", Items: []store.Item{{
		ID:      "http://ex.org/l/rNew",
		Props:   map[string][]string{pnProp: {"RES-0099-X"}, labelProp: {"L-0099"}},
		Classes: []string{clsRes},
	}}}
	ub, _ := json.Marshal(up)
	start := time.Now()
	req := httptest.NewRequest("POST", "/v1/items/upsert", bytes.NewReader(ub))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("upsert during slow query: %d %s", rec.Code, rec.Body)
	}
	if queryDone.Load() {
		t.Fatal("slow query finished before the upsert; the overlap was not exercised")
	}
	// The upsert takes no lock a query holds: it patches the writer's
	// engine while the query scores a published snapshot, so it never
	// waits for the query (~800ms). 400ms leaves slack for loaded CI
	// machines.
	if elapsed > 400*time.Millisecond {
		t.Fatalf("upsert took %v while a slow query ran; the write path is blocked on queries", elapsed)
	}
	if msg, ok := <-queryErr; ok {
		t.Fatal(msg)
	}
}

// TestQueryNeverTornUnderUpserts flips one local item between two
// complete descriptions while link queries hammer the service. Every
// observed score must be exactly the pre- or post-mutation value — a
// half-updated item (one property old, one new) would score 0.5.
func TestQueryNeverTornUnderUpserts(t *testing.T) {
	svc := twoPropService(t, similarity.Exact{})
	h := svc.Handler()
	var links learnRequest
	for i := 0; i < 20; i++ {
		links.Links = append(links.Links, linkSpec{
			External: fmt.Sprintf("http://ex.org/e/r%d", i),
			Local:    fmt.Sprintf("http://ex.org/l/r%d", i),
		})
	}
	call(t, h, "POST", "/v1/learn", links, nil)

	// The probe pair: e/r0 is (RES-0000-X, L-0000); l/r0 flips between
	// exactly that description (score 1) and a fully different one
	// (score 0).
	descA := map[string][]string{pnProp: {"RES-0000-X"}, labelProp: {"L-0000"}}
	descB := map[string][]string{pnProp: {"RES-9999-Y"}, labelProp: {"L-9999"}}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			desc := descA
			if i%2 == 1 {
				desc = descB
			}
			up := upsertRequest{Side: "local", Items: []store.Item{{
				ID: "http://ex.org/l/r0", Props: desc, Classes: []string{clsRes},
			}}}
			b, _ := json.Marshal(up)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/items/upsert", bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				t.Errorf("flip upsert: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	qb, _ := json.Marshal(linkRequest{Items: []string{"http://ex.org/e/r0"}})
	for q := 0; q < 60; q++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/link", bytes.NewReader(qb)))
		if rec.Code != http.StatusOK {
			t.Fatalf("link: %d %s", rec.Code, rec.Body)
		}
		var resp linkResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, res := range resp.Results {
			for _, m := range res.Matches {
				if m.Local != "http://ex.org/l/r0" {
					continue
				}
				if m.Score != 0 && m.Score != 1 {
					t.Fatalf("torn read: l/r0 scored %v, want exactly 0 (old) or 1 (new)", m.Score)
				}
			}
		}
	}
	close(stop)
	<-writerDone
}
