package braidio

// CLI smoke tests: build and run each command the repository ships,
// asserting their headline output. Guarded by -short since each run
// compiles a binary.

import (
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-bench", "-list")
	for _, want := range []string{"fig15", "table5", "ext-harvest", "ablation-solver"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench -list missing %q", want)
		}
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-bench", "-exp", "fig9")
	if !strings.Contains(out, "1:2546") || !strings.Contains(out, "3546:1") {
		t.Errorf("fig9 report missing the headline ratios:\n%s", out)
	}
}

func TestCLISim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-sim", "-tx", "Nike Fuel Band", "-rx", "MacBook Pro 15", "-d", "0.5")
	if !strings.Contains(out, "gain vs Bluetooth") {
		t.Errorf("sim output missing gain line:\n%s", out)
	}
	if !strings.Contains(out, "backscatter") {
		t.Errorf("sim output missing mode breakdown:\n%s", out)
	}
}

func TestCLILink(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-link")
	for _, want := range []string{"Operational ranges", "Regime boundaries", "1.80 m", "2.40 m"} {
		if !strings.Contains(out, want) {
			t.Errorf("link output missing %q", want)
		}
	}
}

func TestCLIField(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-field", "-grid", "11")
	if !strings.Contains(out, "worst case with diversity") {
		t.Errorf("field output missing diversity summary:\n%s", out)
	}
}

// TestCLISimFleet: the fleet mode prints the population summary, and
// the output is byte-identical across worker counts — the CLI-level
// witness of the engine's determinism contract.
func TestCLISimFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"./cmd/braidio-sim", "-fleet", "4", "-members", "2", "-horizon", "900", "-rounds", "3"}
	seq := runCLI(t, append(args, "-workers", "1")...)
	for _, want := range []string{"fleet bits delivered", "hubs exhausted: 0/4", "offload solves"} {
		if !strings.Contains(seq, want) {
			t.Errorf("fleet output missing %q:\n%s", want, seq)
		}
	}
	par := runCLI(t, append(args, "-workers", "8")...)
	if seq != par {
		t.Errorf("fleet output differs between -workers 1 and 8:\n--- w1:\n%s--- w8:\n%s", seq, par)
	}
}

// TestCLISimMetrics: the -metrics flag emits the observability snapshot
// in all three formats, the table's fleet section is byte-identical
// across worker counts (the CLI witness of the metrics determinism
// contract), and an unknown format fails.
func TestCLISimMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"./cmd/braidio-sim", "-fleet", "4", "-members", "2", "-horizon", "900", "-rounds", "3", "-metrics"}
	table := runCLI(t, append(args, "table", "-workers", "1")...)
	for _, want := range []string{"== Metrics ==", "Mode occupancy", "TX:RX drain ratio", "braid runs", "quarantines"} {
		if !strings.Contains(table, want) {
			t.Errorf("-metrics table missing %q:\n%s", want, table)
		}
	}
	// The table must be byte-identical across worker counts except the
	// link-cache lines: the cache is process-global and its hit/miss
	// split depends on shard interleaving (the same sections
	// Snapshot.Canonical projects out).
	stripCache := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "cache") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if par := runCLI(t, append(args, "table", "-workers", "8")...); stripCache(par) != stripCache(table) {
		t.Errorf("-metrics table differs between -workers 1 and 8:\n--- w1:\n%s--- w8:\n%s", table, par)
	}
	if out := runCLI(t, append(args, "json")...); !strings.Contains(out, `"BraidRuns": 24`) {
		t.Errorf("-metrics json missing braid-run count:\n%s", out)
	}
	if out := runCLI(t, append(args, "prom")...); !strings.Contains(out, "braidio_braid_runs_total 24") ||
		!strings.Contains(out, "braidio_energy_per_bit_joules_bucket") {
		t.Errorf("-metrics prom missing expected families:\n%s", out)
	}
	cmd := exec.Command("go", "run", "./cmd/braidio-sim", "-metrics", "bogus")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("-metrics bogus should fail, got:\n%s", out)
	}
}

// TestCLISimTraceFaults: a traced session under an injected fault chain
// prints the same bytes on every run, its injector counters in name
// order.
func TestCLISimTraceFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	args := []string{"./cmd/braidio-sim", "-trace", filepath.Join(t.TempDir(), "t.csv"), "-frames", "3000",
		"-faults", "ge:0.02:0.2,jam:5:30:2:25,drop:10:60:3,brownout:20:60:5:3,snr:-2:1"}
	first := runCLI(t, args...)
	var names []string
	for _, line := range strings.Split(first, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "injector" {
			names = append(names, f[1])
		}
	}
	if len(names) < 2 || !sort.StringsAreSorted(names) {
		t.Errorf("injector lines %q are not in name order:\n%s", names, first)
	}
	for run := 2; run <= 3; run++ {
		if out := runCLI(t, args...); out != first {
			t.Fatalf("run %d differs from run 1:\n--- run 1:\n%s--- run %d:\n%s", run, first, run, out)
		}
	}
}

// TestCLIBenchDiff: a record diffed against itself reports zero
// regressions and exits 0.
func TestCLIBenchDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "./cmd/braidio-bench", "-benchdiff", "BENCH_pr3.json", "BENCH_pr3.json")
	if !strings.Contains(out, "0 regressed") {
		t.Errorf("self-diff reported regressions:\n%s", out)
	}
}

func TestCLIExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ex := range []struct{ path, want string }{
		{"./examples/quickstart", "planned mode mix"},
		{"./examples/wearable-sync", "improvement"},
		{"./examples/camera-stream", "gain over Bluetooth"},
		{"./examples/regime-explorer", "Regime"},
		{"./examples/body-hub", "hub radio bill"},
		{"./examples/qos-stream", "300 kbps floor"},
	} {
		out := runCLI(t, ex.path)
		if !strings.Contains(out, ex.want) {
			t.Errorf("%s output missing %q:\n%s", ex.path, ex.want, out)
		}
	}
}
