package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	datalink "repro"
)

const (
	pnProp    = "http://ex.org/pn"
	labelProp = "http://www.w3.org/2000/01/rdf-schema#label"
	clsRes    = "http://ex.org/onto#Resistor"
	clsCap    = "http://ex.org/onto#Capacitor"
)

// corpusService builds a service over a small hand-written corpus: local
// catalog items typed Resistor/Capacitor with structured part numbers,
// matching external items, and an ontology with the two classes.
func corpusService(t *testing.T) *Service {
	t.Helper()
	return corpusServiceOpts(t, nil)
}

// corpusServiceOpts is corpusService with an options hook, for tests
// that need the same corpus behind different service configuration.
func corpusServiceOpts(t *testing.T, mod func(*Options)) *Service {
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
	addLocal := func(id, pn, class string) {
		item := datalink.NewIRI(id)
		sl.Add(datalink.T(item, datalink.NewIRI(pnProp), datalink.NewLiteral(pn)))
		sl.Add(datalink.T(item, datalink.RDFType, datalink.NewIRI(class)))
	}
	addExt := func(id, pn string) {
		item := datalink.NewIRI(id)
		se.Add(datalink.T(item, datalink.NewIRI(pnProp), datalink.NewLiteral(pn)))
	}
	for i := 0; i < 20; i++ {
		addLocal(fmt.Sprintf("http://ex.org/l/r%d", i), fmt.Sprintf("RES-%04d-X", i), clsRes)
		addLocal(fmt.Sprintf("http://ex.org/l/c%d", i), fmt.Sprintf("CAP-%04d-Y", i), clsCap)
		addExt(fmt.Sprintf("http://ex.org/e/r%d", i), fmt.Sprintf("RES-%04d-Z", i))
		addExt(fmt.Sprintf("http://ex.org/e/c%d", i), fmt.Sprintf("CAP-%04d-W", i))
	}
	opts := Options{
		Learner: datalink.LearnerConfig{SupportThreshold: 0.01},
		DefaultLinker: datalink.LinkerConfig{
			Comparators: []datalink.Comparator{{
				ExternalProperty: datalink.NewIRI(pnProp),
				LocalProperty:    datalink.NewIRI(pnProp),
				Measure:          datalink.Levenshtein,
				Weight:           1,
			}},
			Threshold: 0.5,
		},
	}
	if mod != nil {
		mod(&opts)
	}
	return New(se, sl, ol, opts)
}

// call sends a JSON request to the handler and decodes the response.
func call(t testing.TB, h http.Handler, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// learnBody labels every external r-item with its local counterpart.
func learnBody(n int) learnRequest {
	var req learnRequest
	for i := 0; i < n; i++ {
		req.Links = append(req.Links,
			linkSpec{External: fmt.Sprintf("http://ex.org/e/r%d", i), Local: fmt.Sprintf("http://ex.org/l/r%d", i)},
			linkSpec{External: fmt.Sprintf("http://ex.org/e/c%d", i), Local: fmt.Sprintf("http://ex.org/l/c%d", i)})
	}
	return req
}

func TestHealthz(t *testing.T) {
	h := corpusService(t).Handler()
	var resp map[string]bool
	if rec := call(t, h, "GET", "/healthz", nil, &resp); rec.Code != http.StatusOK || !resp["ok"] {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}

func TestStatus(t *testing.T) {
	h := corpusService(t).Handler()
	var resp statusResponse
	if rec := call(t, h, "GET", "/v1/status", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body)
	}
	if resp.ExternalTriples == 0 || resp.LocalTriples == 0 {
		t.Fatalf("status reports empty corpus: %+v", resp)
	}
	if resp.Learned || resp.Rules != 0 {
		t.Fatalf("fresh service claims a model: %+v", resp)
	}
	if len(resp.Measures) == 0 || resp.Measures[0] > resp.Measures[len(resp.Measures)-1] {
		t.Fatalf("measures not reported sorted: %v", resp.Measures)
	}
}

func TestLearnAndRules(t *testing.T) {
	h := corpusService(t).Handler()
	var resp learnResponse
	if rec := call(t, h, "POST", "/v1/learn", learnBody(20), &resp); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	if resp.Rules == 0 || resp.TrainingLinks != 40 {
		t.Fatalf("learn response: %+v", resp)
	}
	var rules struct {
		Rules []ruleJSON `json:"rules"`
	}
	if rec := call(t, h, "GET", "/v1/rules", nil, &rules); rec.Code != http.StatusOK {
		t.Fatalf("rules: %d %s", rec.Code, rec.Body)
	}
	if len(rules.Rules) != resp.Rules {
		t.Fatalf("rules endpoint returned %d rules, learn reported %d", len(rules.Rules), resp.Rules)
	}
	r0 := rules.Rules[0]
	if r0.Segment == "" || r0.Class == "" || r0.Confidence <= 0 || !strings.Contains(r0.Text, r0.Segment) {
		t.Fatalf("malformed rule: %+v", r0)
	}
}

func TestRulesBeforeLearnConflicts(t *testing.T) {
	h := corpusService(t).Handler()
	if rec := call(t, h, "GET", "/v1/rules", nil, nil); rec.Code != http.StatusConflict {
		t.Fatalf("rules before learn: %d, want 409", rec.Code)
	}
	if rec := call(t, h, "POST", "/v1/link", linkRequest{}, nil); rec.Code != http.StatusConflict {
		t.Fatalf("link before learn: %d, want 409", rec.Code)
	}
}

func TestLink(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)
	var resp linkResponse
	req := linkRequest{Items: []string{"http://ex.org/e/r3"}, TopK: 2}
	if rec := call(t, h, "POST", "/v1/link", req, &resp); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results: %+v", resp.Results)
	}
	got := resp.Results[0]
	if got.Item != "http://ex.org/e/r3" || len(got.Matches) == 0 || len(got.Matches) > 2 {
		t.Fatalf("result: %+v", got)
	}
	if got.Matches[0].Local != "http://ex.org/l/r3" {
		t.Fatalf("best match %+v, want l/r3", got.Matches[0])
	}
	// The reduced space keeps capacitors out of a resistor's candidates.
	for _, m := range got.Matches {
		if strings.Contains(m.Local, "/c") {
			t.Fatalf("capacitor %s leaked into resistor candidates", m.Local)
		}
	}

	// All items, inline comparators, custom threshold.
	th := 0.9
	all := linkRequest{
		Threshold:   &th,
		TopK:        1,
		Comparators: []comparatorSpec{{ExternalProperty: pnProp, Measure: "jarowinkler"}},
	}
	var allResp linkResponse
	if rec := call(t, h, "POST", "/v1/link", all, &allResp); rec.Code != http.StatusOK {
		t.Fatalf("link all: %d %s", rec.Code, rec.Body)
	}
	if len(allResp.Results) != 40 {
		t.Fatalf("expected 40 items, got %d", len(allResp.Results))
	}

	// Unknown measure is a 400.
	bad := linkRequest{Comparators: []comparatorSpec{{ExternalProperty: pnProp, Measure: "nope"}}}
	if rec := call(t, h, "POST", "/v1/link", bad, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad measure: %d, want 400", rec.Code)
	}
}

// TestLinkEmptySpacePolicy pins the policy for an item whose reduced
// space is empty — one that fires no rule, and one whose predicted class
// has no local instance left: a 200 with an empty matches list, even at
// threshold 0, and no fallback to the full catalog. ?debug=timings
// counts the first as an item that fired no rule.
func TestLinkEmptySpacePolicy(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)
	up := upsertRequest{Side: "external", Items: []itemSpec{
		// No segment of this part number occurs in any rule.
		{ID: "http://ex.org/e/none", Properties: map[string][]string{pnProp: {"ZZZ-QQQQ"}}},
		// Only capacitor rules fire for this one.
		{ID: "http://ex.org/e/cap", Properties: map[string][]string{pnProp: {"CAP-W"}}},
	}}
	if rec := call(t, h, "POST", "/v1/items/upsert", up, nil); rec.Code != http.StatusOK {
		t.Fatalf("upsert: %d %s", rec.Code, rec.Body)
	}
	rm := removeRequest{Side: "local"}
	for i := 0; i < 20; i++ {
		rm.IDs = append(rm.IDs, fmt.Sprintf("http://ex.org/l/c%d", i))
	}
	if rec := call(t, h, "POST", "/v1/items/remove", rm, nil); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", rec.Code, rec.Body)
	}

	zero := 0.0
	req := linkRequest{Items: []string{"http://ex.org/e/none", "http://ex.org/e/cap"}, Threshold: &zero}
	var resp linkResponse
	rec := call(t, h, "POST", "/v1/link?debug=timings", req, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results: %+v", resp.Results)
	}
	for _, r := range resp.Results {
		if r.Matches == nil || len(r.Matches) != 0 {
			t.Errorf("%s: matches %+v, want an empty list", r.Item, r.Matches)
		}
	}
	if n := strings.Count(rec.Body.String(), `"matches":[]`); n != 2 {
		t.Errorf("body has %d empty matches lists, want 2: %s", n, rec.Body)
	}
	want := map[string]int64{
		datalink.CountLinkCandidates:   0,
		datalink.CountLinkPairsScored:  0,
		datalink.CountLinkPairsPruned:  0,
		datalink.CountLinkPairsSkipped: 0,
		datalink.CountLinkItemsNoRule:  1,
	}
	if !reflect.DeepEqual(resp.Counts, want) {
		t.Errorf("counts = %v, want %v", resp.Counts, want)
	}
}

func TestLinkCancellation(t *testing.T) {
	svc := corpusService(t)
	h := svc.Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := json.Marshal(linkRequest{})
	req := httptest.NewRequest("POST", "/v1/link", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("cancelled link: %d %s, want 499", rec.Code, rec.Body)
	}
}

func TestUpsertThenLinkSeesNewItem(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)

	// Prime the linker cache so the upsert exercises the incremental path.
	call(t, h, "POST", "/v1/link", linkRequest{Items: []string{"http://ex.org/e/r0"}}, nil)

	// A new local resistor that matches e/r9's part number better.
	up := upsertRequest{Side: "local", Items: []itemSpec{{
		ID:         "http://ex.org/l/rNew",
		Properties: map[string][]string{pnProp: {"RES-0009-Z"}},
		Classes:    []string{clsRes},
	}}}
	var upResp upsertResponse
	if rec := call(t, h, "POST", "/v1/items/upsert", up, &upResp); rec.Code != http.StatusOK {
		t.Fatalf("upsert: %d %s", rec.Code, rec.Body)
	}
	if upResp.Upserted != 1 || upResp.Version == 0 {
		t.Fatalf("upsert response: %+v", upResp)
	}

	var resp linkResponse
	req := linkRequest{Items: []string{"http://ex.org/e/r9"}, TopK: 1}
	if rec := call(t, h, "POST", "/v1/link", req, &resp); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	if got := resp.Results[0].Matches; len(got) != 1 || got[0].Local != "http://ex.org/l/rNew" || got[0].Score != 1 {
		t.Fatalf("upserted item must win with score 1, got %+v", got)
	}

	// Upserting an external item re-routes its candidates too.
	upExt := upsertRequest{Side: "external", Items: []itemSpec{{
		ID:         "http://ex.org/e/r9",
		Properties: map[string][]string{pnProp: {"CAP-0005-Y"}},
	}}}
	if rec := call(t, h, "POST", "/v1/items/upsert", upExt, nil); rec.Code != http.StatusOK {
		t.Fatalf("upsert external: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, h, "POST", "/v1/link", req, &resp); rec.Code != http.StatusOK {
		t.Fatalf("link after external upsert: %d %s", rec.Code, rec.Body)
	}
	if got := resp.Results[0].Matches; len(got) != 1 || got[0].Local != "http://ex.org/l/c5" {
		t.Fatalf("re-described item must match l/c5, got %+v", got)
	}

	// Classes on the external side are rejected.
	badUp := upsertRequest{Side: "external", Items: []itemSpec{{ID: "http://ex.org/e/x", Classes: []string{clsRes}}}}
	if rec := call(t, h, "POST", "/v1/items/upsert", badUp, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("classes on external side: %d, want 400", rec.Code)
	}
}

func TestRemove(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)
	call(t, h, "POST", "/v1/link", linkRequest{Items: []string{"http://ex.org/e/r0"}}, nil)

	var rm removeResponse
	req := removeRequest{Side: "local", IDs: []string{"http://ex.org/l/r7", "http://ex.org/l/absent"}}
	if rec := call(t, h, "POST", "/v1/items/remove", req, &rm); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", rec.Code, rec.Body)
	}
	if rm.Removed != 1 {
		t.Fatalf("removed %d items, want 1", rm.Removed)
	}

	var resp linkResponse
	if rec := call(t, h, "POST", "/v1/link", linkRequest{Items: []string{"http://ex.org/e/r7"}, TopK: 1}, &resp); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}
	for _, m := range resp.Results[0].Matches {
		if m.Local == "http://ex.org/l/r7" {
			t.Fatal("removed item still appears in matches")
		}
	}
}

func TestBadRequests(t *testing.T) {
	h := corpusService(t).Handler()
	cases := []struct {
		method, path string
		body         string
		want         int
	}{
		{"POST", "/v1/items/upsert", `{"side":"sideways","items":[{"id":"x"}]}`, http.StatusBadRequest},
		{"POST", "/v1/items/upsert", `{"side":"external","items":[]}`, http.StatusBadRequest},
		{"POST", "/v1/items/upsert", `{"side":"external","items":[{"id":""}]}`, http.StatusBadRequest},
		{"POST", "/v1/items/remove", `{"side":"external","ids":[]}`, http.StatusBadRequest},
		{"POST", "/v1/learn", `{"links":[{"external":"","local":"x"}]}`, http.StatusBadRequest},
		{"POST", "/v1/learn", `{"nope":1}`, http.StatusBadRequest},
		{"GET", "/v1/status/extra", ``, http.StatusNotFound},
		{"DELETE", "/v1/learn", ``, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s %s %s: %d, want %d", c.method, c.path, c.body, rec.Code, c.want)
		}
	}
}

// TestJSONRejectsInvalidUTF8: upsert, learn and link answer 400 to a
// JSON body holding a byte that is not UTF-8, which encoding/json would
// read as U+FFFD, and the upsert stores nothing.
func TestJSONRejectsInvalidUTF8(t *testing.T) {
	svc := corpusService(t)
	h := svc.Handler()
	if rec := call(t, h, "POST", "/v1/learn", learnBody(20), nil); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	const bad = "\x80"
	item := datalink.NewIRI("http://ex.org/l/bad")
	for _, c := range []struct{ path, body string }{
		{"/v1/items/upsert", `{"side":"local","items":[{"id":"` + item.Value + `","properties":{"` + pnProp + `":["A` + bad + `"]},"classes":["` + clsRes + `"]}]}`},
		{"/v1/learn", `{"links":[{"external":"http://ex.org/e/r0","local":"http://ex.org/l/r0` + bad + `"}]}`},
		{"/v1/link", `{"items":["http://ex.org/e/r0` + bad + `"]}`},
	} {
		req := httptest.NewRequest("POST", c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid UTF-8") {
			t.Errorf("%s %q: %d %s, want 400 invalid UTF-8", c.path, c.body, rec.Code, rec.Body)
		}
	}
	if n := len(svc.state.Load().view.Local().Find(item, datalink.Term{}, datalink.Term{})); n != 0 {
		t.Errorf("the rejected upsert stored %d triples", n)
	}
}

// TestConcurrentTraffic hammers the service with interleaved upserts and
// link queries; under -race this validates the full lock stack (service
// RWMutex, pipeline cache mutex, engine RWMutex).
func TestConcurrentTraffic(t *testing.T) {
	h := corpusService(t).Handler()
	call(t, h, "POST", "/v1/learn", learnBody(20), nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if g%2 == 0 {
					up := upsertRequest{Side: "local", Items: []itemSpec{{
						ID:         fmt.Sprintf("http://ex.org/l/live-%d-%d", g, i),
						Properties: map[string][]string{pnProp: {fmt.Sprintf("RES-%02d%02d-L", g, i)}},
						Classes:    []string{clsRes},
					}}}
					b, _ := json.Marshal(up)
					req := httptest.NewRequest("POST", "/v1/items/upsert", bytes.NewReader(b))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("upsert: %d %s", rec.Code, rec.Body.String())
						return
					}
				} else {
					b, _ := json.Marshal(linkRequest{Items: []string{fmt.Sprintf("http://ex.org/e/r%d", i)}, TopK: 3})
					req := httptest.NewRequest("POST", "/v1/link", bytes.NewReader(b))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("link: %d %s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
