package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIBenchSmoke runs the bench subcommand in smoke mode and checks
// the report: schema tag, every phase populated, and sane values. This
// is the same invocation CI uses, so a broken bench fails here first.
func TestCLIBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	out := filepath.Join(t.TempDir(), "BENCH.json")
	stderr := run(t, bin, "bench", "-smoke", "-out", out)
	for _, want := range []string{"upsert", "learn", "link queries", "wal"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("bench progress output lacks %q:\n%s", want, stderr)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("bench wrote no report: %v", err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Schema != "linkrules-bench/1" {
		t.Errorf("schema = %q, want linkrules-bench/1", rep.Schema)
	}
	if !rep.Smoke {
		t.Error("report does not record smoke mode")
	}
	if rep.Timestamp == "" || rep.GoVersion == "" || rep.CPUs < 1 {
		t.Errorf("environment block incomplete: %+v", rep)
	}
	if rep.Upsert.Items == 0 || rep.Upsert.ItemsPerSec <= 0 {
		t.Errorf("upsert phase empty: %+v", rep.Upsert)
	}
	if rep.Learn.Rules == 0 || rep.Learn.Seconds <= 0 {
		t.Errorf("learn phase empty: %+v", rep.Learn)
	}
	if rep.Link.Queries == 0 || rep.Link.P50Ms <= 0 || rep.Link.P99Ms < rep.Link.P50Ms {
		t.Errorf("link phase implausible: %+v", rep.Link)
	}
	if rep.WAL.Appends == 0 || rep.WAL.Bytes == 0 {
		t.Errorf("wal phase empty: %+v", rep.WAL)
	}
	// The report must marshal back to the same schema keys — a field
	// rename would silently break the cross-commit trajectory.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "timestamp", "go_version", "goos", "goarch", "cpus", "smoke", "corpus", "upsert", "learn", "link", "wal"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report lacks top-level key %q", key)
		}
	}
}

// TestCLIBenchDefaultsToStdout runs bench without -out from an empty
// working directory: the report must go to stdout, not to a file, so a
// bare run from the repository root never overwrites a committed report.
func TestCLIBenchDefaultsToStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "bench", "-smoke")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("linkrules bench -smoke: %v\n%s", err, stderr.Bytes())
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("bench without -out wrote into its working directory: %v %v", entries, err)
	}
	var rep benchReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report: %v\n%s", err, stdout.Bytes())
	}
	if rep.Schema != "linkrules-bench/1" || !rep.Smoke {
		t.Errorf("report schema %q smoke %v, want linkrules-bench/1 in smoke mode", rep.Schema, rep.Smoke)
	}
}
