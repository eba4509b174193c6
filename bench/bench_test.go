package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// spec reads the repository's BENCHMARK.json.
func spec(t *testing.T) (benchmarkSpec, []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	var w struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, x := range w.Workloads {
		names = append(names, x.Name)
	}
	return s, names
}

// TestWorkloadsMatchBenchmarkJSON runs every workload BENCHMARK.json
// lists at smoke scale, untraced and traced, and checks that each run
// passes its own output checks (including the pinned fingerprints) and
// prints exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	s, names := spec(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	bin := filepath.Join(t.TempDir(), "braidio-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "braidio/cmd/braidio-serve").CombinedOutput(); err != nil {
		t.Fatalf("build braidio-serve: %v\n%s", err, out)
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", name)
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 1, seconds: 0.5, trace: trace, short: true,
				workDir: t.TempDir(), serveBin: bin, setupRepeats: 1, probeTime: 10 * time.Millisecond,
			}
			res, err := execute(&cfg, run)
			if err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the spread the acceptance check
// computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestJudge covers the comparison rule's verdicts.
func TestJudge(t *testing.T) {
	bound := 0.1
	m := specMetric{Name: "op_p50_ms", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	if v := judge(base, faster, m); v.outcome != "gain" || v.wins != 10 {
		t.Errorf("20%% faster: %+v, want a gain with 10 wins", v)
	}
	if v := judge(base, slower, m); v.outcome != "regressed" {
		t.Errorf("20%% slower: %s, want regressed", v.outcome)
	}
	if v := judge(base, base, m); v.outcome != "within bound" {
		t.Errorf("identical: %s, want within bound", v.outcome)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(noisy, base, m); v.outcome != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", v.outcome)
	}
}
