package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	datalink "repro"
	"repro/internal/store"
)

// rawCall sends a request with a verbatim body and Content-Type —
// unlike call, which JSON-marshals — for the streaming bulk endpoint.
func rawCall(t *testing.T, h http.Handler, path, contentType, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

func triplesOf(s *Service, side datalink.Side, id string) int {
	qs := s.state.Load()
	g := qs.se
	if side == datalink.LocalSide {
		g = qs.sl
	}
	return len(g.Find(datalink.NewIRI(id), datalink.Term{}, datalink.Term{}))
}

func TestBulkNDJSONIngest(t *testing.T) {
	s := corpusService(t)
	h := s.Handler()
	body := strings.Join([]string{
		`{"id":"http://ex.org/e/n1","properties":{"` + pnProp + `":["NEW-0001-A"]}}`,
		``, // blank lines are skipped silently
		`{"id":"http://ex.org/e/n2","properties":{"` + pnProp + `":["NEW-0002-A"]}}`,
		`{broken json`,
		`{"properties":{"` + pnProp + `":["NO-ID"]}}`,
		`{"id":"http://ex.org/e/n3","unknown_field":1}`,
		`{"id":"http://ex.org/e/n2","remove":true,"properties":{"` + pnProp + `":["X"]}}`,
		`{"id":"http://ex.org/e/r0","remove":true}`,
		`{"id":"http://ex.org/e/never-existed","remove":true}`,
	}, "\n")
	var rep BulkReport
	if rec := rawCall(t, h, "/v1/items/bulk?side=external", "application/x-ndjson", body, &rep); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	// n1, n2 upserted; r0 removed (never-existed counts as a no-op remove).
	if rep.Upserted != 2 || rep.Removed != 1 || rep.Batches != 1 {
		t.Errorf("report counts: %+v", rep)
	}
	if rep.Errors != 4 || len(rep.ErrorReport) != 4 {
		t.Fatalf("errors: %+v", rep)
	}
	wantLines := []int{4, 5, 6, 7}
	for i, e := range rep.ErrorReport {
		if e.Line != wantLines[i] {
			t.Errorf("error %d on line %d, want %d (%s)", i, e.Line, wantLines[i], e.Error)
		}
	}
	if rep.Version == 0 {
		t.Error("report missing graph version")
	}
	if n := triplesOf(s, datalink.ExternalSide, "http://ex.org/e/n1"); n != 1 {
		t.Errorf("n1 has %d triples, want 1", n)
	}
	if n := triplesOf(s, datalink.ExternalSide, "http://ex.org/e/r0"); n != 0 {
		t.Errorf("removed r0 still has %d triples", n)
	}
}

func TestBulkChunking(t *testing.T) {
	lines := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `{"id":"http://ex.org/e/chunk%d","properties":{"%s":["CHK-%04d-A"]}}`+"\n", i, pnProp, i)
		}
		return b.String()
	}
	// ?batch= overrides: 10 items in chunks of 3 -> 4 batch commits.
	s := corpusService(t)
	var rep BulkReport
	if rec := rawCall(t, s.Handler(), "/v1/items/bulk?side=external&batch=3", "", lines(10), &rep); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep.Upserted != 10 || rep.Batches != 4 {
		t.Errorf("batch=3: %+v", rep)
	}

	// Options.BulkBatch is the default chunk size when ?batch= is absent.
	s2 := corpusServiceOpts(t, func(o *Options) { o.BulkBatch = 5 })
	var rep2 BulkReport
	if rec := rawCall(t, s2.Handler(), "/v1/items/bulk?side=external", "", lines(10), &rep2); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep2.Upserted != 10 || rep2.Batches != 2 {
		t.Errorf("BulkBatch=5: %+v", rep2)
	}
}

func TestBulkNTriplesIngest(t *testing.T) {
	s := corpusService(t)
	h := s.Handler()
	body := strings.Join([]string{
		`<http://ex.org/l/nt1> <` + pnProp + `> "RES-9001-X" .`,
		`<http://ex.org/l/nt1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <` + clsRes + `> .`,
		`<http://ex.org/l/nt2> <` + pnProp + `> "CAP-9002-Y" .`,
		`this is not a triple`,
		`<http://ex.org/l/nt2> <http://ex.org/ref> <http://ex.org/other> .`, // IRI object, not rdf:type
		`<http://ex.org/l/nt3> <` + pnProp + `> "RES-9003-X" .`,
	}, "\n")
	var rep BulkReport
	if rec := rawCall(t, h, "/v1/items/bulk?side=local", "application/n-triples", body, &rep); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep.Upserted != 3 || rep.Errors != 2 {
		t.Fatalf("report: %+v", rep)
	}
	// nt1 keeps both its property and its class triple.
	if n := triplesOf(s, datalink.LocalSide, "http://ex.org/l/nt1"); n != 2 {
		t.Errorf("nt1 has %d triples, want 2", n)
	}
	if n := triplesOf(s, datalink.LocalSide, "http://ex.org/l/nt3"); n != 1 {
		t.Errorf("nt3 has %d triples, want 1", n)
	}

	// rdf:type statements make classes, and classes are local-only: the
	// whole item is rejected as a line error on the external side.
	extBody := `<http://ex.org/e/nt9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <` + clsRes + `> .` + "\n"
	var rep2 BulkReport
	if rec := rawCall(t, h, "/v1/items/bulk?side=external", "application/n-triples", extBody, &rep2); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep2.Upserted != 0 || rep2.Errors != 1 {
		t.Errorf("external classes accepted: %+v", rep2)
	}
}

// TestBulkRejectsInvalidUTF8 sends the same three items as an N-Triples
// and as an NDJSON body, the second with a byte that is not UTF-8. Both
// formats must skip that line as a per-line error naming it, and ingest
// the other two.
func TestBulkRejectsInvalidUTF8(t *testing.T) {
	bodies := map[string]string{
		"application/n-triples": strings.Join([]string{
			`<http://ex.org/e/u1> <` + pnProp + `> "RES-9101-X" .`,
			`<http://ex.org/e/u2> <` + pnProp + `> "RES-9102-` + "\x80" + `" .`,
			`<http://ex.org/e/u3> <` + pnProp + `> "RES-9103-X" .`,
		}, "\n"),
		"application/x-ndjson": strings.Join([]string{
			`{"id":"http://ex.org/e/u1","properties":{"` + pnProp + `":["RES-9101-X"]}}`,
			`{"id":"http://ex.org/e/u2","properties":{"` + pnProp + `":["RES-9102-` + "\x80" + `"]}}`,
			`{"id":"http://ex.org/e/u3","properties":{"` + pnProp + `":["RES-9103-X"]}}`,
		}, "\n"),
	}
	for ct, body := range bodies {
		s := corpusService(t)
		var rep BulkReport
		if rec := rawCall(t, s.Handler(), "/v1/items/bulk?side=external", ct, body, &rep); rec.Code != http.StatusOK {
			t.Fatalf("%s: bulk: %d %s", ct, rec.Code, rec.Body)
		}
		if rep.Upserted != 2 || rep.Errors != 1 || len(rep.ErrorReport) != 1 || rep.ErrorReport[0].Line != 2 {
			t.Errorf("%s: report %+v, want 2 upserted and one error on line 2", ct, rep)
		}
		if n := triplesOf(s, datalink.ExternalSide, "http://ex.org/e/u2"); n != 0 {
			t.Errorf("%s: the invalid line's item has %d triples", ct, n)
		}
	}
}

// TestBulkMixedOrderPreserved checks that upserts and removes of the
// same item inside one chunk apply in stream order: the last statement
// about an item wins, exactly as if each line were its own request.
func TestBulkMixedOrderPreserved(t *testing.T) {
	s := corpusService(t)
	h := s.Handler()
	body := strings.Join([]string{
		`{"id":"http://ex.org/e/flip","properties":{"` + pnProp + `":["OLD-0001-A"]}}`,
		`{"id":"http://ex.org/e/flip","remove":true}`,
		`{"id":"http://ex.org/e/flip","properties":{"` + pnProp + `":["NEW-0001-A"]}}`,
		`{"id":"http://ex.org/e/gone","properties":{"` + pnProp + `":["TMP-0001-A"]}}`,
		`{"id":"http://ex.org/e/gone","remove":true}`,
	}, "\n")
	var rep BulkReport
	if rec := rawCall(t, h, "/v1/items/bulk?side=external", "", body, &rep); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep.Batches != 1 {
		t.Fatalf("expected one batch, got %+v", rep)
	}
	qs := s.state.Load()
	got := qs.se.Find(datalink.NewIRI("http://ex.org/e/flip"), datalink.Term{}, datalink.Term{})
	if len(got) != 1 || got[0].O.Value != "NEW-0001-A" {
		t.Errorf("flip: %+v", got)
	}
	if n := triplesOf(s, datalink.ExternalSide, "http://ex.org/e/gone"); n != 0 {
		t.Errorf("gone still present with %d triples", n)
	}
}

// TestBulkEquivalentToPerItem is the semantic contract of the batched
// path: a bulk ingest must leave the service in exactly the state the
// per-item endpoints would, down to rules and link results.
func TestBulkEquivalentToPerItem(t *testing.T) {
	type item struct{ id, pn, class string }
	var ups []item
	for i := 0; i < 37; i++ {
		ups = append(ups, item{
			id:    fmt.Sprintf("http://ex.org/l/bulk%d", i),
			pn:    fmt.Sprintf("RES-%04d-X", 100+i),
			class: clsRes,
		})
	}
	removes := []string{"http://ex.org/l/r3", "http://ex.org/l/bulk5"}

	bulk := corpusService(t)
	var lines strings.Builder
	for _, it := range ups {
		fmt.Fprintf(&lines, `{"id":%q,"properties":{"%s":[%q]},"classes":[%q]}`+"\n", it.id, pnProp, it.pn, it.class)
	}
	for _, id := range removes {
		fmt.Fprintf(&lines, `{"id":%q,"remove":true}`+"\n", id)
	}
	var rep BulkReport
	if rec := rawCall(t, bulk.Handler(), "/v1/items/bulk?side=local&batch=10", "", lines.String(), &rep); rec.Code != http.StatusOK {
		t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
	}
	if rep.Upserted != len(ups) || rep.Removed != len(removes) || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}

	perItem := corpusService(t)
	ph := perItem.Handler()
	for _, it := range ups {
		rc := call(t, ph, http.MethodPost, "/v1/items/upsert", map[string]any{
			"side": "local",
			"items": []map[string]any{{
				"id":         it.id,
				"properties": map[string][]string{pnProp: {it.pn}},
				"classes":    []string{it.class},
			}},
		}, nil)
		if rc.Code != http.StatusOK {
			t.Fatalf("per-item upsert: %d %s", rc.Code, rc.Body)
		}
	}
	for _, id := range removes {
		rc := call(t, ph, http.MethodPost, "/v1/items/remove", map[string]any{
			"side": "local", "ids": []string{id},
		}, nil)
		if rc.Code != http.StatusOK {
			t.Fatalf("per-item remove: %d %s", rc.Code, rc.Body)
		}
	}

	// Learn on both so the fingerprint covers rules and link scoring over
	// the (identical) mutated corpora — this exercises the value index
	// patched by ApplyPatches, not just the graphs.
	for _, svc := range []*Service{bulk, perItem} {
		if rc := call(t, svc.Handler(), http.MethodPost, "/v1/learn", learnBody(10), nil); rc.Code != http.StatusOK {
			t.Fatalf("learn: %d %s", rc.Code, rc.Body)
		}
	}
	be, bl, br, bk := serviceFingerprint(t, bulk)
	pe, pl, pr, pk := serviceFingerprint(t, perItem)
	if be != pe || bl != pl {
		t.Error("graphs diverged between bulk and per-item ingest")
	}
	if br != pr {
		t.Errorf("rules diverged:\nbulk:     %s\nper-item: %s", br, pr)
	}
	if bk != pk {
		t.Errorf("link results diverged:\nbulk:     %s\nper-item: %s", bk, pk)
	}
}

// TestBulkDurableRecovery: batch records written by bulk ingest replay
// through crash recovery to the same state a live mirror reaches.
func TestBulkDurableRecovery(t *testing.T) {
	seed := corpusSeed(t)
	mirrorSeed := corpusSeed(t)
	mirror := New(mirrorSeed.External, mirrorSeed.Local, mirrorSeed.Ontology, durableOpts())

	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncAlways, SnapshotEvery: 1 << 30}
	durable := restoreService(t, dir, seed, sopts)

	var lines strings.Builder
	for i := 0; i < 25; i++ {
		fmt.Fprintf(&lines, `{"id":"http://ex.org/e/dur%d","properties":{"%s":["DUR-%04d-A"]}}`+"\n", i, pnProp, i)
	}
	fmt.Fprintf(&lines, `{"id":"http://ex.org/e/dur3","remove":true}`+"\n")
	fmt.Fprintf(&lines, `{"id":"http://ex.org/e/r1","remove":true}`+"\n")
	body := lines.String()
	for _, svc := range []*Service{mirror, durable} {
		var rep BulkReport
		if rec := rawCall(t, svc.Handler(), "/v1/items/bulk?side=external&batch=8", "", body, &rep); rec.Code != http.StatusOK {
			t.Fatalf("bulk: %d %s", rec.Code, rec.Body)
		}
		if rep.Upserted != 25 || rep.Removed != 2 || rep.Batches != 4 {
			t.Fatalf("report: %+v", rep)
		}
	}

	crash(durable)
	durable = restoreService(t, dir, nil, sopts)
	defer durable.Close()

	me, ml, _, _ := serviceFingerprint(t, mirror)
	de, dl, _, _ := serviceFingerprint(t, durable)
	if me != de {
		t.Error("external graphs diverged after batch-record replay")
	}
	if ml != dl {
		t.Error("local graphs diverged after batch-record replay")
	}
}

func TestBulkHandlerRejectsBadParams(t *testing.T) {
	h := corpusService(t).Handler()
	for _, path := range []string{
		"/v1/items/bulk",              // missing side
		"/v1/items/bulk?side=upwards", // unknown side
		"/v1/items/bulk?side=external&batch=0",
		"/v1/items/bulk?side=external&batch=-3",
		"/v1/items/bulk?side=external&batch=many",
	} {
		if rec := rawCall(t, h, path, "", `{"id":"http://ex.org/e/x"}`, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", path, rec.Code)
		}
	}
}
