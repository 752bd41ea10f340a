package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// cmdServe starts the live linking service: an HTTP/JSON API over a
// corpus that supports item upserts/removals, relearning rules from
// labeled links, and top-k link queries inside the rule-reduced space.
//
// The corpus comes either from a directory written by `linkrules
// datagen` (-data) or is generated in-process from the corpus flags.
// With -learn (the default) the corpus's training links are learned at
// startup, so the service answers link queries immediately; without it
// the service starts empty-handed and expects POST /v1/learn.
//
// With -store DIR the service is durable: every mutation is written to a
// WAL before it is applied, state is checkpointed into binary snapshots
// (forced via POST /v1/admin/snapshot, automatic every -snapshot-every
// mutations), and a restart recovers snapshot + WAL tail — a store
// directory with existing state takes precedence over the corpus flags.
// -fsync picks the WAL durability policy (never, interval, always).
//
// Overload protection is configured with -max-inflight (admission cap,
// excess gets 429), -request-timeout (per-request deadline, 503),
// -rate/-burst (per-client token buckets) and -api-keys (a file of
// accepted keys; -strict-auth turns unauthenticated requests into
// 401s). See the service package's resilience middleware.
//
// The flight recorder keeps the tail of the request stream: every slow
// (-slow-ms) or errored request is retained with its stage-level trace,
// plus a -trace-sample fraction of normal traffic, queryable via
// -debug-requests (GET /debug/requests). See examples/service/README.md.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests get
// a drain deadline and the WAL is flushed and synced before exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	data := fs.String("data", "", "corpus directory from `linkrules datagen` (empty: generate from corpus flags)")
	learn := fs.Bool("learn", true, "learn rules from the corpus training links at startup")
	learnWorkers := fs.Int("learn-workers", 0, "goroutines for the learning passes (0: GOMAXPROCS); model is identical at any setting")
	storeDir := fs.String("store", "", "durability directory (empty: ephemeral; existing state wins over corpus flags)")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy: never, interval or always")
	snapEvery := fs.Int("snapshot-every", 1024, "mutations between automatic snapshots (<0 disables)")
	bulkBatch := fs.Int("bulk-batch", 0, "default items per bulk-ingest batch commit (0: 1000; requests may override with ?batch=N)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently served requests; excess gets 429 (0: unlimited)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline; 503 when exceeded (0: none)")
	rate := fs.Float64("rate", 0, "per-client sustained requests/second (0: unlimited)")
	burst := fs.Int("burst", 0, "per-client burst capacity (0: max(1, round(rate)))")
	apiKeysFile := fs.String("api-keys", "", "file of accepted API keys, one per line (empty: no authentication)")
	strictAuth := fs.Bool("strict-auth", false, "reject unauthenticated requests with 401 (requires -api-keys)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ (gated by the auth middleware like any endpoint)")
	accessLog := fs.Bool("access-log", false, "emit one structured JSON log line per request to stderr")
	slowMS := fs.Float64("slow-ms", 0, "flight recorder slow threshold in ms; slow/error requests keep their stage traces (0: default 250)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of fast requests the flight recorder also samples (0..1)")
	debugRequests := fs.Bool("debug-requests", false, "mount GET /debug/requests (the flight recorder query endpoint, gated like pprof)")
	if err := parse(fs, args); err != nil {
		return err
	}

	keys, err := loadAPIKeys(*apiKeysFile)
	if err != nil {
		return err
	}
	if *strictAuth && len(keys) == 0 {
		return fmt.Errorf("-strict-auth requires -api-keys with at least one key")
	}
	// One registry per process: the service's HTTP/pipeline instruments
	// and the store's WAL/checkpoint instruments share the /metrics
	// endpoint.
	reg := obs.NewRegistry()
	opts := service.Options{
		Learner:       datalink.LearnerConfig{SupportThreshold: cf.th, Workers: *learnWorkers},
		DefaultLinker: datalink.DefaultLinkingConfig(),
		Resilience: service.ResilienceOptions{
			MaxInFlight:    *maxInflight,
			RequestTimeout: *reqTimeout,
			Rate:           *rate,
			Burst:          *burst,
			APIKeys:        keys,
			StrictAuth:     *strictAuth,
		},
		BulkBatch:   *bulkBatch,
		Metrics:     reg,
		EnablePprof: *pprofOn,
		Recorder: obs.RecorderOptions{
			SlowThreshold: time.Duration(*slowMS * float64(time.Millisecond)),
			SampleRate:    *traceSample,
		},
		DebugRequests: *debugRequests,
	}
	if *slowMS < 0 || *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-slow-ms must be >= 0 and -trace-sample in [0,1]")
	}
	if *accessLog {
		opts.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	var svc *service.Service
	if *storeDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncMode)
		if err != nil {
			return err
		}
		st, rec, err := store.Open(*storeDir, store.Options{
			Fsync:         mode,
			SnapshotEvery: *snapEvery,
			Metrics:       store.NewMetrics(reg),
		})
		if err != nil {
			return err
		}
		var seed *service.Seed
		if rec.Empty() {
			ds, err := loadOrGenerateCorpus(cf, *data)
			if err != nil {
				st.Close()
				return err
			}
			seed = &service.Seed{External: ds.External, Local: ds.Local, Ontology: ds.Ontology}
			if *learn {
				seed.Training = ds.Training.Links
			}
		} else {
			tail := len(rec.Tail)
			snapSeq := uint64(0)
			if rec.Snapshot != nil {
				snapSeq = rec.Snapshot.Seq
			}
			fmt.Fprintf(os.Stderr, "linkrules serve: recovering from %s (snapshot seq %d, %d wal records", *storeDir, snapSeq, tail)
			if rec.TornTail {
				fmt.Fprint(os.Stderr, ", torn tail ignored")
			}
			fmt.Fprintln(os.Stderr, ")")
			// An existing store's state wins over the corpus flags — that
			// includes the persisted learner config. Recovery serves the
			// checkpointed model whatever the config, but a -th given on
			// restart would make replayed and later learns learn a
			// different model than the dead process would have.
			if cf.th != 0 {
				fmt.Fprintf(os.Stderr, "linkrules serve: ignoring -th %g: the store's persisted learner config wins on recovery\n", cf.th)
			}
			// Workers survives: it only affects learning wall time, never
			// the model, so it cannot conflict with the persisted config.
			opts.Learner = datalink.LearnerConfig{Workers: *learnWorkers}
		}
		if svc, err = service.Restore(st, rec, seed, opts); err != nil {
			st.Close()
			return err
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "linkrules serve: durable store at %s (fsync %s, seq %d, last snapshot %d)\n",
			*storeDir, mode, stats.Seq, stats.LastSnapshotSeq)
	} else {
		ds, err := loadOrGenerateCorpus(cf, *data)
		if err != nil {
			return err
		}
		svc = service.New(ds.External, ds.Local, ds.Ontology, opts)
		if *learn {
			if err := svc.LearnLinks(ds.Training.Links); err != nil {
				return fmt.Errorf("learning startup model: %w", err)
			}
			fmt.Fprintf(os.Stderr, "linkrules serve: learned rules from %d training links\n", ds.Training.Len())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	// The resolved address goes to stdout so scripts (and the CLI smoke
	// test) can pick up an ephemeral port.
	fmt.Printf("listening on http://%s\n", ln.Addr())
	// Server-level timeouts bound slow clients (slowloris reads, stalled
	// response writes, idle keep-alives) independently of the service's
	// per-request deadline. WriteTimeout must outlast -request-timeout,
	// or the connection would be cut before the handler can answer 503 —
	// and long streaming responses get headroom beyond the deadline too.
	writeTimeout := 2 * time.Minute
	if *reqTimeout > 0 && *reqTimeout+30*time.Second > writeTimeout {
		writeTimeout = *reqTimeout + 30*time.Second
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until the listener fails or a signal asks for shutdown; then
	// drain in-flight requests and sync the WAL before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the hard way
		fmt.Fprintf(os.Stderr, "linkrules serve: signal received, draining (deadline %s)\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "linkrules serve: drain incomplete: %v\n", err)
			srv.Close()
		}
		if err := svc.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
		fmt.Fprintln(os.Stderr, "linkrules serve: shut down cleanly")
		return nil
	}
}

// loadAPIKeys reads the -api-keys file: one key per line, blank lines
// and #-comments skipped. An empty path means no authentication.
func loadAPIKeys(path string) ([]string, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading api keys: %w", err)
	}
	var keys []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		keys = append(keys, line)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("api keys file %s holds no keys", path)
	}
	return keys, nil
}

// loadOrGenerateCorpus resolves the corpus the flags describe: read from
// a datagen directory, or generate in-process.
func loadOrGenerateCorpus(cf *corpusFlags, data string) (*datalink.Dataset, error) {
	if data != "" {
		ds, err := readDataset(data)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "linkrules serve: loaded corpus from %s (SE %d, SL %d triples)\n",
			data, ds.External.Len(), ds.Local.Len())
		return ds, nil
	}
	cfg, err := cf.config()
	if err != nil {
		return nil, err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "linkrules serve: generated %s corpus, seed %d (SE %d, SL %d triples)\n",
		cf.scale, cf.seed, ds.External.Len(), ds.Local.Len())
	return ds, nil
}

// readDataset loads the four N-Triples files `linkrules datagen` writes.
func readDataset(dir string) (*datalink.Dataset, error) {
	ontoG, err := readGraph(filepath.Join(dir, "ontology.nt"))
	if err != nil {
		return nil, err
	}
	ol, err := datalink.OntologyFromGraph(ontoG)
	if err != nil {
		return nil, err
	}
	sl, err := readGraph(filepath.Join(dir, "local.nt"))
	if err != nil {
		return nil, err
	}
	se, err := readGraph(filepath.Join(dir, "external.nt"))
	if err != nil {
		return nil, err
	}
	tsG, err := readGraph(filepath.Join(dir, "training.nt"))
	if err != nil {
		return nil, err
	}
	return &datalink.Dataset{
		External: se,
		Local:    sl,
		Ontology: ol,
		Training: datalink.TrainingSetFromGraph(tsG),
	}, nil
}
