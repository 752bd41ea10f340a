package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	datalink "repro"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Streaming bulk ingest: POST /v1/items/bulk reads an arbitrarily large
// NDJSON or N-Triples body in bounded memory, chunks it into batches of
// Options.BulkBatch items, and commits each chunk as ONE batched WAL
// record — one CRC frame, one fsync, one index-lock round trip and one
// published COW bundle per chunk instead of per item. Malformed lines
// are skipped and reported per line (capped), so one bad record in a
// million-line load does not abort the other 999999.

// defaultBulkBatch is the chunk size when Options.BulkBatch is unset.
const defaultBulkBatch = 1000

// maxBulkErrorReport caps the per-line error report; errors beyond the
// cap are still counted in Errors.
const maxBulkErrorReport = 100

// Bulk body formats.
const (
	// BulkNDJSON is newline-delimited JSON: one itemSpec per line, plus
	// an optional "remove": true marker to delete the item instead.
	BulkNDJSON = "ndjson"
	// BulkNTriples is streaming N-Triples: consecutive statements with
	// the same subject form one item (literal objects become property
	// values; rdf:type IRIs become classes, local side only).
	BulkNTriples = "ntriples"
)

// BulkLineError locates one skipped input line.
type BulkLineError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// BulkReport summarizes a bulk ingest: progress (also on failure, since
// earlier chunks are already committed), the per-line error report, and
// the mutated graph's version after the last committed chunk.
type BulkReport struct {
	Upserted    int             `json:"upserted"`
	Removed     int             `json:"removed"`
	Batches     int             `json:"batches"`
	Errors      int             `json:"errors"`
	ErrorReport []BulkLineError `json:"error_report,omitempty"`
	Version     uint64          `json:"version"`
	PurgedLinks int             `json:"purged_links,omitempty"`
}

func (rep *BulkReport) addError(line int, msg string) {
	rep.Errors++
	if len(rep.ErrorReport) < maxBulkErrorReport {
		rep.ErrorReport = append(rep.ErrorReport, BulkLineError{Line: line, Error: msg})
	}
}

// bulkLine is the NDJSON wire form: an itemSpec plus the remove marker.
type bulkLine struct {
	ID         string              `json:"id"`
	Properties map[string][]string `json:"properties,omitempty"`
	Classes    []string            `json:"classes,omitempty"`
	// Remove deletes the item (and its training links) instead of
	// upserting it, so one stream can carry a mixed batch.
	Remove bool `json:"remove,omitempty"`
}

// bulkChunker accumulates validated sub-ops and commits them as batch
// records of at most `batch` items each. Consecutive same-kind items
// coalesce into one sub-op, preserving stream order across kind flips.
type bulkChunker struct {
	s       *Service
	ctx     context.Context
	side    store.Side
	batch   int
	entries []store.BatchEntry
	count   int
	rep     *BulkReport
}

func (c *bulkChunker) addUpsert(it store.Item) error {
	if n := len(c.entries); n > 0 && c.entries[n-1].Upsert != nil {
		c.entries[n-1].Upsert.Items = append(c.entries[n-1].Upsert.Items, it)
	} else {
		c.entries = append(c.entries, store.BatchEntry{
			Upsert: &store.UpsertOp{Side: c.side, Items: []store.Item{it}},
		})
	}
	return c.added()
}

func (c *bulkChunker) addRemove(id string) error {
	if n := len(c.entries); n > 0 && c.entries[n-1].Remove != nil {
		c.entries[n-1].Remove.IDs = append(c.entries[n-1].Remove.IDs, id)
	} else {
		c.entries = append(c.entries, store.BatchEntry{
			Remove: &store.RemoveOp{Side: c.side, IDs: []string{id}},
		})
	}
	return c.added()
}

func (c *bulkChunker) added() error {
	c.count++
	if c.count >= c.batch {
		return c.flush()
	}
	return nil
}

// flush commits the accumulated chunk as one batch record. The deadline
// is checked per chunk — a request that runs out of time fails between
// batches, never inside one, so progress is always a whole number of
// atomic batches.
func (c *bulkChunker) flush() error {
	if len(c.entries) == 0 {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	res, err := c.s.commit(c.ctx, &store.Record{
		Op:    store.OpBatch,
		Batch: &store.BatchOp{Ops: c.entries},
	})
	if err != nil {
		return err
	}
	c.rep.Upserted += res.upserted
	c.rep.Removed += res.removed
	c.rep.PurgedLinks += res.purged
	c.rep.Version = res.version
	c.rep.Batches++
	c.entries = nil
	c.count = 0
	return nil
}

// BulkIngest streams items from body into the corpus in batched
// commits. format is BulkNDJSON or BulkNTriples; batch <= 0 uses
// Options.BulkBatch (default 1000). The returned report is meaningful
// even when err != nil: chunks committed before the failure stay
// applied (each one atomically), and the report says how far the load
// got. Malformed lines are skipped, recorded per line, and do not abort
// the stream; I/O errors, commit failures and context expiry do.
func (s *Service) BulkIngest(ctx context.Context, body io.Reader, side datalink.Side, format string, batch int) (BulkReport, error) {
	if batch <= 0 {
		batch = s.opts.BulkBatch
	}
	if batch <= 0 {
		batch = defaultBulkBatch
	}
	var rep BulkReport
	c := &bulkChunker{s: s, ctx: ctx, side: sideToStore(side), batch: batch, rep: &rep}
	var err error
	switch format {
	case BulkNTriples:
		err = s.bulkNTriples(c, body, side)
	default:
		err = s.bulkNDJSON(c, body, side)
	}
	if err != nil {
		return rep, err
	}
	return rep, c.flush()
}

// bulkNDJSON reads one JSON item description per line.
func (s *Service) bulkNDJSON(c *bulkChunker, body io.Reader, side datalink.Side) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !utf8.Valid(raw) {
			// encoding/json would turn the bytes into U+FFFD; reject the
			// line as an N-Triples body does.
			c.rep.addError(line, "invalid UTF-8")
			continue
		}
		var spec bulkLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			c.rep.addError(line, fmt.Sprintf("decoding line: %v", err))
			continue
		}
		if dec.More() {
			c.rep.addError(line, "trailing data after JSON object")
			continue
		}
		if spec.ID == "" {
			c.rep.addError(line, "id is required")
			continue
		}
		if spec.Remove {
			if len(spec.Properties) > 0 || len(spec.Classes) > 0 {
				c.rep.addError(line, "remove lines must not carry properties or classes")
				continue
			}
			if err := c.addRemove(spec.ID); err != nil {
				return err
			}
			continue
		}
		if err := validateItem(side, datalink.NewIRI(spec.ID), spec.Properties, spec.Classes); err != nil {
			c.rep.addError(line, err.Error())
			continue
		}
		if err := c.addUpsert(store.Item{ID: spec.ID, Props: spec.Properties, Classes: spec.Classes}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	return nil
}

// bulkNTriples reads streaming N-Triples, grouping consecutive
// statements by subject into items. Statements for one item must be
// contiguous (sorted N-Triples, as datagen and WriteNTriples emit, are)
// — a subject reappearing later in the stream re-upserts the item,
// REPLACING its earlier description. Literal objects become property
// values (language tags and datatypes are dropped: items store plain
// literals); rdf:type with an IRI object becomes a class. Anything else
// is a per-line error.
func (s *Service) bulkNTriples(c *bulkChunker, body io.Reader, side datalink.Side) error {
	nr := rdf.NewNTriplesReader(body)
	var cur *store.Item
	curLine := 0
	finish := func() error {
		if cur == nil {
			return nil
		}
		it := *cur
		cur = nil
		if err := validateItem(side, datalink.NewIRI(it.ID), it.Props, it.Classes); err != nil {
			c.rep.addError(curLine, err.Error())
			return nil
		}
		return c.addUpsert(it)
	}
	for {
		t, err := nr.Next()
		if err == io.EOF {
			break
		}
		var perr *rdf.ParseError
		if errors.As(err, &perr) {
			c.rep.addError(perr.Line, perr.Msg)
			continue
		}
		if err != nil {
			return fmt.Errorf("reading body: %w", err)
		}
		if t.S.Kind != rdf.IRIKind {
			c.rep.addError(nr.Line(), "subject must be an IRI")
			continue
		}
		if cur == nil || cur.ID != t.S.Value {
			if err := finish(); err != nil {
				return err
			}
			cur = &store.Item{ID: t.S.Value}
			curLine = nr.Line()
		}
		switch {
		case t.P.Value == rdf.RDFType && t.O.Kind == rdf.IRIKind:
			cur.Classes = append(cur.Classes, t.O.Value)
		case t.O.Kind == rdf.LiteralKind:
			if cur.Props == nil {
				cur.Props = make(map[string][]string, 4)
			}
			cur.Props[t.P.Value] = append(cur.Props[t.P.Value], t.O.Value)
		default:
			c.rep.addError(nr.Line(), "object must be a literal (or an IRI for rdf:type)")
		}
	}
	return finish()
}

// bulkFormat maps a Content-Type header to a bulk body format. NDJSON
// is the default; N-Triples bodies declare application/n-triples.
func bulkFormat(contentType string) string {
	mt, _, _ := strings.Cut(contentType, ";")
	if strings.TrimSpace(strings.ToLower(mt)) == "application/n-triples" {
		return BulkNTriples
	}
	return BulkNDJSON
}

// bulkErrorResponse is the failure envelope of a bulk ingest: the usual
// error fields plus the progress report, because chunks committed
// before the failure stay applied.
type bulkErrorResponse struct {
	errorBody
	BulkReport
}

// handleBulk is the streaming endpoint. Unlike the JSON handlers it
// reads the request body directly — no MaxBytesReader, no buffering —
// so admission control, authentication and the request deadline apply
// once per request while the body itself may be gigabytes.
func (s *Service) handleBulk(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	side, err := parseSide(q.Get("side"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := 0
	if v := q.Get("batch"); v != "" {
		batch, err = strconv.Atoi(v)
		if err != nil || batch <= 0 {
			writeErr(w, http.StatusBadRequest, "batch must be a positive integer, got %q", v)
			return
		}
	}
	rep, err := s.BulkIngest(r.Context(), r.Body, side, bulkFormat(r.Header.Get("Content-Type")), batch)
	if err != nil {
		code, reason := http.StatusBadRequest, ""
		switch {
		case errors.Is(err, errDegraded):
			code, reason = http.StatusServiceUnavailable, reasonDegraded
		case errors.Is(err, errPersist):
			code, reason = http.StatusServiceUnavailable, reasonPersist
		case errors.Is(err, context.DeadlineExceeded):
			code, reason = http.StatusServiceUnavailable, reasonTimeout
			s.res.timeouts.Inc()
			retryAfterHeader(w, s.res.opts.RetryAfter)
		case errors.Is(err, context.Canceled):
			code = 499 // client closed request
		}
		if reason != "" {
			if rw, ok := w.(interface{ setReason(string) }); ok {
				rw.setReason(reason)
			}
		}
		writeJSON(w, code, bulkErrorResponse{
			errorBody: errorBody{
				Error:     err.Error(),
				Reason:    reason,
				RequestID: w.Header().Get("X-Request-ID"),
			},
			BulkReport: rep,
		})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
