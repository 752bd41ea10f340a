package service

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/store"
)

// bulkAllocPerByte and bulkAllocBase bound what one BulkIngest call may
// allocate: a fixed multiple of the body length plus a constant. A
// chunk of three items commits and publishes once, and its items take
// at least a few bytes each, so the per-byte share covers the
// publication too.
const (
	bulkAllocPerByte = 1 << 10
	bulkAllocBase    = 1 << 20
)

// FuzzBulkIngest sends NDJSON and N-Triples bodies through BulkIngest,
// in chunks of three items so that chunks commit mid-stream, on a fresh
// service that has learned a small corpus. It must never panic, count
// no more errors and no more applied items than the body has lines,
// report errors only on lines of the body, and allocate within a fixed
// multiple of the body length plus a constant: a decoder that trusts a
// length or a count it reads can allocate gigabytes for a few bytes.
func FuzzBulkIngest(f *testing.F) {
	up := func(id, pn string) string {
		return `{"id":"` + id + `","properties":{"` + pnProp + `":["` + pn + `"]}}`
	}
	for _, nd := range []string{
		up("http://ex.org/e/n1", "NEW-0001-A") + "\n" + up("http://ex.org/e/n2", "NEW-0002-A") + "\n" +
			`{"id":"http://ex.org/e/r0","remove":true}` + "\n" + up("http://ex.org/e/n3", "NEW-0003-A") + "\n",
		`{"id":"http://ex.org/e/r1","remove":true}`,
		up("http://ex.org/e/n4", "BAD-\x80-UTF8"),
		up("http://ex.org/e/n5", "NEW-0005-A") + `{"id":"http://ex.org/e/n6"}`,
		`{"id":"http://ex.org/e/n7","classes":["` + clsRes + `"]}`,
		"\n\n{broken\n",
	} {
		f.Add(false, []byte(nd))
	}
	for _, nt := range []string{
		"<http://ex.org/e/n1> <" + pnProp + "> \"NEW-0001-A\" .\n<http://ex.org/e/n2> <" + pnProp + "> \"NEW-0002-A\" .\n" +
			"<http://ex.org/e/n3> <" + pnProp + "> \"NEW-0003-A\" .\n<http://ex.org/e/n4> <" + pnProp + "> \"NEW-0004-A\" .\n",
		"_:b1 <" + pnProp + "> \"NEW-0005-A\" .\n",
		"<http://ex.org/e/n6> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + clsRes + "> .\n",
		"<http://ex.org/e/n7> <" + pnProp + "> \"BAD-\x80\" .\n",
		"<http://ex.org/e/n8> <" + pnProp + "> <http://ex.org/not-a-literal> .\n",
	} {
		f.Add(true, []byte(nt))
	}
	f.Fuzz(func(t *testing.T, ntriples bool, body []byte) {
		s := corpusService(t)
		if rec := call(t, s.Handler(), http.MethodPost, "/v1/learn", learnBody(5), nil); rec.Code != http.StatusOK {
			t.Fatalf("learn: %d %s", rec.Code, rec.Body)
		}
		format := BulkNDJSON
		if ntriples {
			format = BulkNTriples
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := s.BulkIngest(context.Background(), bytes.NewReader(body), store.External, format, 3)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Logf("BulkIngest: %v", err)
		}
		lines := bytes.Count(body, []byte("\n")) + 1
		if rep.Errors > lines {
			t.Errorf("%d errors for a body of %d lines", rep.Errors, lines)
		}
		if n := rep.Upserted + rep.Removed; n > lines {
			t.Errorf("%d items applied from a body of %d lines", n, lines)
		}
		if n := rep.Upserted + rep.Removed + rep.Errors; !ntriples && n > lines {
			t.Errorf("%d items applied and %d errors from an NDJSON body of %d lines", rep.Upserted+rep.Removed, rep.Errors, lines)
		}
		for _, e := range rep.ErrorReport {
			if e.Line < 1 || e.Line > lines {
				t.Errorf("error on line %d of a %d-line body: %s", e.Line, lines, e.Error)
			}
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(bulkAllocBase+bulkAllocPerByte*len(body)); got > limit {
			t.Errorf("a %d-byte body allocated %d bytes, over %d", len(body), got, limit)
		}
	})
}
