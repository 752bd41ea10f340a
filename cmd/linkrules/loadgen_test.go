package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("link=90,upsert=9,learn=1")
	if err != nil {
		t.Fatal(err)
	}
	if mix["link"] != 90 || mix["upsert"] != 9 || mix["learn"] != 1 {
		t.Fatalf("mix = %v", mix)
	}
	if mix, err := parseMix("link=1"); err != nil || len(mix) != 1 {
		t.Fatalf("single-op mix: %v %v", mix, err)
	}
	for _, bad := range []string{"", "link=0", "status=5", "link=-1", "link", "link=x"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	// 100 observations uniform over (0, 1]: cumulative buckets at each
	// 0.25 boundary. The p50 estimate interpolates to ~0.5.
	buckets := []histBucket{
		{le: 0.25, count: 25},
		{le: 0.5, count: 50},
		{le: 1, count: 100},
		{le: math.Inf(1), count: 100},
	}
	if got := histQuantile(0.50, buckets); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5", got)
	}
	if got := histQuantile(0.99, buckets); math.Abs(got-0.99) > 1e-9 {
		t.Errorf("p99 = %v, want 0.99", got)
	}
	// Rank landing in the +Inf bucket clamps to the highest finite bound.
	inf := []histBucket{{le: 0.1, count: 50}, {le: math.Inf(1), count: 100}}
	if got := histQuantile(0.99, inf); got != 0.1 {
		t.Errorf("+Inf clamp = %v, want 0.1", got)
	}
	if got := histQuantile(0.5, nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	if got := histQuantile(0.5, []histBucket{{le: 1, count: 0}}); got != 0 {
		t.Errorf("zero-count = %v, want 0", got)
	}
}

// TestCLILoadgenSmoke starts a `serve` on the smoke corpus with the
// flight recorder on and runs the loadgen subcommand against it in smoke
// mode, as CI's "Load generation (e2e, live server)" step does, and
// checks the report: schema tag, client and server blocks populated, a
// lint-clean scrape, and a passing SLO. Then /debug/requests must
// answer. The CI step repeats the run outside `go test` only to upload
// its report, the deployment's SLO record, as LOADGEN_e2e.json.
func TestCLILoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	// The corpus -smoke generates client-side: small scale, seed 42.
	p := startServe(t, bin, "-scale", "small", "-links", "150", "-catalog", "500",
		"-slow-ms", "50", "-trace-sample", "0.1", "-debug-requests")
	out := filepath.Join(t.TempDir(), "LOADGEN.json")
	stderr := run(t, bin, "loadgen", "-smoke", "-addr", p.base, "-slo-p99", "60000", "-out", out)
	if !strings.Contains(stderr, "requests in") {
		t.Errorf("loadgen progress output:\n%s", stderr)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("loadgen wrote no report: %v", err)
	}
	var rep loadgenReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if rep.Schema != "linkrules-loadgen/1" {
		t.Errorf("schema = %q, want linkrules-loadgen/1", rep.Schema)
	}
	if !rep.Smoke || rep.Target.Mode != "http" || rep.Target.Addr != p.base {
		t.Errorf("run description: %+v", rep)
	}
	if rep.Build.GoVersion == "" {
		t.Errorf("build identity missing: %+v", rep.Build)
	}
	if rep.Client.Requests == 0 || rep.Client.OK == 0 || rep.Client.AchievedQPS <= 0 {
		t.Errorf("client block empty: %+v", rep.Client)
	}
	if rep.Client.PerOp["link"].OK == 0 || rep.Client.PerOp["link"].P99Ms <= 0 {
		t.Errorf("link op stats empty: %+v", rep.Client.PerOp)
	}
	if len(rep.Server.RequestsTotal) == 0 || len(rep.Server.Stages) == 0 {
		t.Errorf("server deltas empty: %+v", rep.Server)
	}
	if rep.Server.LinkP99Ms <= 0 || rep.Server.GoroutinesAfter < 1 {
		t.Errorf("server estimates implausible: %+v", rep.Server)
	}
	if !rep.Server.ScrapeLintClean {
		t.Error("post-run scrape not lint-clean")
	}
	if rep.SLO == nil || !rep.SLO.Pass {
		t.Errorf("slo block: %+v", rep.SLO)
	}
	// Schema stability: the trajectory keys must survive any refactor.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "timestamp", "build", "target", "workload", "corpus", "client", "server", "slo"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report lacks top-level key %q", key)
		}
	}
	// The flight recorder answers with the configuration serve gave it.
	var dbg struct {
		Config struct {
			SlowMS     float64 `json:"slow_ms"`
			SampleRate float64 `json:"sample_rate"`
		} `json:"config"`
	}
	body := p.get(t, "/debug/requests?n=5")
	if err := json.Unmarshal([]byte(body), &dbg); err != nil {
		t.Fatalf("/debug/requests: %v\n%s", err, body)
	}
	if dbg.Config.SlowMS != 50 || dbg.Config.SampleRate != 0.1 {
		t.Errorf("flight recorder config %+v, want slow_ms 50, sample_rate 0.1", dbg.Config)
	}
}

// TestCLILoadgenRequiresAddr: loadgen is a client of a running service,
// so a run without -addr fails before generating any corpus.
func TestCLILoadgenRequiresAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	out, err := exec.Command(bin, "loadgen", "-smoke").CombinedOutput()
	if err == nil {
		t.Fatalf("loadgen without -addr succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "-addr") {
		t.Errorf("error does not name -addr:\n%s", out)
	}
	// The server's learner config applies, so loadgen takes no -th.
	out, err = exec.Command(bin, "loadgen", "-th", "0.01", "-addr", "127.0.0.1:1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-th") {
		t.Errorf("loadgen accepted -th (err %v):\n%s", err, out)
	}
}

// TestCLIVersion: `linkrules version` prints the build identity.
func TestCLIVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	bin := binary(t)
	out := run(t, bin, "version")
	if !strings.Contains(out, "linkrules ") || !strings.Contains(out, "go1.") {
		t.Errorf("version output: %q", out)
	}
}
