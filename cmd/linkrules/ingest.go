package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	datalink "repro"
	"repro/internal/service"
	"repro/internal/store"
)

// cmdIngest streams a corpus file (or stdin) into a linking service
// through the batched mutation path: against a running server it POSTs
// the body to /v1/items/bulk; with -store it opens the durability
// directory directly and commits batch records in-process — no server
// needed for offline loads. Either way memory stays bounded: the input
// is chunked into batches of -bulk-batch items, each committed as one
// WAL record and one published snapshot.
//
// The input format is NDJSON (one {"id", "properties", "classes",
// "remove"} object per line) or N-Triples (statements grouped by
// consecutive subject); -format auto picks by file extension, with
// NDJSON the fallback for stdin.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	file := fs.String("file", "", "input file; empty or - reads stdin")
	side := fs.String("side", "external", "corpus side receiving the items: external or local")
	format := fs.String("format", "auto", "body format: ndjson, ntriples, or auto (by file extension)")
	addr := fs.String("addr", "", "running service address HOST:PORT (mutually exclusive with -store)")
	storeDir := fs.String("store", "", "durability directory to ingest into in-process (mutually exclusive with -addr)")
	bulkBatch := fs.Int("bulk-batch", 0, "items per batch commit (0: server default / 1000)")
	apiKey := fs.String("api-key", "", "X-API-Key header for an authenticated service")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy in -store mode: never, interval or always")
	timeout := fs.Duration("timeout", 0, "overall request deadline (0: none)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if (*addr == "") == (*storeDir == "") {
		return fmt.Errorf("exactly one of -addr and -store is required")
	}
	if *bulkBatch < 0 {
		return fmt.Errorf("-bulk-batch must be >= 0")
	}
	sd, err := store.ParseSide(*side)
	if err != nil {
		return err
	}

	in := os.Stdin
	name := "stdin"
	if *file != "" && *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, *file
	}
	bodyFormat, err := resolveIngestFormat(*format, name)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	t0 := time.Now()
	var rep service.BulkReport
	if *addr != "" {
		rep, err = ingestHTTP(ctx, *addr, *apiKey, *side, bodyFormat, *bulkBatch, in)
	} else {
		rep, err = ingestStore(ctx, *storeDir, *fsyncMode, sd, bodyFormat, *bulkBatch, in)
	}
	reportIngest(rep, name, time.Since(t0))
	return err
}

// resolveIngestFormat maps -format (or the input filename) to a bulk
// body format.
func resolveIngestFormat(format, name string) (string, error) {
	switch format {
	case "ndjson":
		return service.BulkNDJSON, nil
	case "ntriples":
		return service.BulkNTriples, nil
	case "auto":
		switch strings.ToLower(filepath.Ext(name)) {
		case ".nt", ".ntriples":
			return service.BulkNTriples, nil
		}
		return service.BulkNDJSON, nil
	}
	return "", fmt.Errorf("format must be ndjson, ntriples or auto, got %q", format)
}

// ingestHTTP streams the body to a running service's bulk endpoint.
func ingestHTTP(ctx context.Context, addr, apiKey, side, format string, batch int, in io.Reader) (service.BulkReport, error) {
	var rep service.BulkReport
	url := fmt.Sprintf("http://%s/v1/items/bulk?side=%s", addr, side)
	if batch > 0 {
		url += fmt.Sprintf("&batch=%d", batch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, in)
	if err != nil {
		return rep, err
	}
	contentType := "application/x-ndjson"
	if format == service.BulkNTriples {
		contentType = "application/n-triples"
	}
	req.Header.Set("Content-Type", contentType)
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return rep, err
	}
	// The failure envelope carries the progress report too — chunks
	// committed before the failure stayed applied.
	_ = json.Unmarshal(raw, &rep)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &e)
		return rep, fmt.Errorf("bulk ingest: %s: %s", resp.Status, e.Error)
	}
	return rep, nil
}

// ingestStore commits the stream directly into a durability directory:
// open (or create) the store, replay its state, batch-commit the input,
// checkpoint, close. The next `linkrules serve -store` boots from it.
func ingestStore(ctx context.Context, dir, fsyncMode string, side store.Side, format string, batch int, in io.Reader) (service.BulkReport, error) {
	var rep service.BulkReport
	mode, err := store.ParseFsyncMode(fsyncMode)
	if err != nil {
		return rep, err
	}
	st, rec, err := store.Open(dir, store.Options{Fsync: mode, SnapshotEvery: -1})
	if err != nil {
		return rep, err
	}
	var seed *service.Seed
	if rec.Empty() {
		ol, err := datalink.OntologyFromGraph(datalink.NewGraph())
		if err != nil {
			st.Close()
			return rep, err
		}
		seed = &service.Seed{External: datalink.NewGraph(), Local: datalink.NewGraph(), Ontology: ol}
	}
	svc, err := service.Restore(st, rec, seed, service.Options{})
	if err != nil {
		st.Close()
		return rep, err
	}
	rep, ingErr := svc.BulkIngest(ctx, in, side, format, batch)
	if _, err := svc.Checkpoint(); err != nil && ingErr == nil {
		ingErr = fmt.Errorf("checkpoint after ingest: %w", err)
	}
	if err := svc.Close(); err != nil && ingErr == nil {
		ingErr = err
	}
	return rep, ingErr
}

// reportIngest prints the bulk report: a summary line on stdout, the
// per-line error report on stderr.
func reportIngest(rep service.BulkReport, name string, d time.Duration) {
	items := rep.Upserted + rep.Removed
	fmt.Printf("ingested %s: %d upserted, %d removed in %d batches (%.1fs, %.0f items/s), %d errors\n",
		name, rep.Upserted, rep.Removed, rep.Batches, d.Seconds(), rate(float64(items), d.Seconds()), rep.Errors)
	for _, e := range rep.ErrorReport {
		fmt.Fprintf(os.Stderr, "linkrules ingest: line %d: %s\n", e.Line, e.Error)
	}
	if rep.Errors > len(rep.ErrorReport) {
		fmt.Fprintf(os.Stderr, "linkrules ingest: ... and %d more errors\n", rep.Errors-len(rep.ErrorReport))
	}
}
