package main

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// binary builds the CLI once per test run.
func binary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "linkrules")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("linkrules %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCLIExperimentsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)

	t.Run("table1", func(t *testing.T) {
		out := run(t, bin, "table1", "-scale", "small", "-seed", "7")
		for _, want := range []string{"Table 1", "conf.", "paper", "measured"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("reduction", func(t *testing.T) {
		out := run(t, bin, "reduction", "-scale", "small", "-seed", "7")
		if !strings.Contains(out, "reduction") {
			t.Errorf("output:\n%s", out)
		}
	})
	t.Run("ordering", func(t *testing.T) {
		out := run(t, bin, "ordering", "-scale", "small", "-seed", "7")
		if !strings.Contains(out, "confidence,lift (paper)") {
			t.Errorf("output:\n%s", out)
		}
	})
	t.Run("holdout", func(t *testing.T) {
		out := run(t, bin, "holdout", "-scale", "small", "-seed", "7", "-k", "3")
		if !strings.Contains(out, "train (paper protocol)") {
			t.Errorf("output:\n%s", out)
		}
	})
	t.Run("link", func(t *testing.T) {
		out := run(t, bin, "link", "-scale", "small", "-seed", "7", "-workers", "2")
		for _, want := range []string{"In-space linking", "workers", "pairs/s"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("keys", func(t *testing.T) {
		out := run(t, bin, "keys", "-scale", "small", "-top", "3")
		if !strings.Contains(out, "key(") {
			t.Errorf("output:\n%s", out)
		}
	})
	t.Run("toponyms", func(t *testing.T) {
		out := run(t, bin, "toponyms", "-links", "300")
		if !strings.Contains(out, "rules learned") {
			t.Errorf("output:\n%s", out)
		}
	})
}

func TestCLIFilePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	rules := filepath.Join(dir, "rules.tsv")

	out := run(t, bin, "datagen", "-scale", "small", "-seed", "3", "-out", corpus)
	if !strings.Contains(out, "external.nt") {
		t.Fatalf("datagen output:\n%s", out)
	}
	for _, f := range []string{"ontology.nt", "local.nt", "external.nt", "training.nt"} {
		if _, err := os.Stat(filepath.Join(corpus, f)); err != nil {
			t.Fatalf("missing corpus file %s: %v", f, err)
		}
	}

	out = run(t, bin, "learn", "-data", corpus, "-rules", rules, "-th", "0.01",
		"-property", "http://provider.example/prop#partNumber")
	if !strings.Contains(out, "learned") {
		t.Fatalf("learn output:\n%s", out)
	}
	if _, err := os.Stat(rules); err != nil {
		t.Fatalf("rules file missing: %v", err)
	}

	out = run(t, bin, "classify", "-rules", rules,
		"-external", filepath.Join(corpus, "external.nt"), "-limit", "2")
	if !strings.Contains(out, "->") && !strings.Contains(out, "no external item") {
		t.Fatalf("classify output:\n%s", out)
	}
}

func TestCLIExport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	dir := filepath.Join(t.TempDir(), "results")
	run(t, bin, "export", "-scale", "small", "-seed", "5", "-out", dir)
	for _, f := range []string{"table1.txt", "table1.csv", "stats.csv", "reduction.csv", "generalize.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing export %s: %v", f, err)
		}
	}
}

// TestCLIServe boots the live service on an ephemeral port, waits for
// the printed address, and drives the HTTP API end to end: status, a
// link query, and an upsert that must be visible to the next query.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	cmd := exec.Command(bin, "serve", "-scale", "small", "-seed", "7", "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatalf("server never printed its address: %v", sc.Err())
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	if out := get("/healthz"); !strings.Contains(out, `"ok":true`) {
		t.Fatalf("healthz: %s", out)
	}
	if out := get("/v1/status"); !strings.Contains(out, `"learned":true`) {
		t.Fatalf("status: %s", out)
	}
	linkOut := post("/v1/link", `{"items":["http://provider.example/item/D000000"],"top_k":1}`)
	if !strings.Contains(linkOut, "matches") {
		t.Fatalf("link: %s", linkOut)
	}
	post("/v1/items/upsert", `{"side":"external","items":[{"id":"http://provider.example/item/D000000","properties":{"http://provider.example/prop#partNumber":["ZZZ-NOPE-999"]}}]}`)
	after := post("/v1/link", `{"items":["http://provider.example/item/D000000"],"top_k":1}`)
	if after == linkOut {
		t.Fatal("upsert had no effect on the following link query")
	}

	// The metrics endpoint serves valid exposition text covering the
	// traffic above: requests by path, stage timings from the link
	// queries, and the upsert counted under its route.
	metrics := get("/metrics")
	if errs := obs.Lint(metrics); errs != nil {
		t.Errorf("/metrics output fails exposition lint: %v", errs)
	}
	for _, want := range []string{
		`linkrules_http_requests_total{path="/v1/link",code="200"} 2`,
		`linkrules_http_requests_total{path="/v1/items/upsert",code="200"} 1`,
		`linkrules_stage_seconds_count{stage="scoring"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func TestCLIUnknownCommandFails(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	// bench names no command: linkbench is the repository benchmark.
	for _, name := range []string{"bogus", "bench"} {
		out, err := exec.Command(bin, name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("linkrules %s: %v, want exit status 2:\n%s", name, err, out)
		}
		if !strings.Contains(string(out), "unknown command") {
			t.Errorf("linkrules %s stderr:\n%s", name, out)
		}
	}
}
