package main

// Comparison of two sets of runs, by a paired rule built for a small,
// noisy machine: runs are paired in file order (alternate which side runs
// first when collecting them); a gain is claimed only when the change
// wins at least nine tenths of at least ten pairs and the medians
// differ by more than the parent's own interquartile range; every
// other end-to-end metric must stay within its BENCHMARK.json bound,
// and is reported unresolved when the parent's spread exceeds it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"` // printed by untraced runs
	PerLayer []specMetric `json:"per_layer"`  // printed by traced runs
}

// specMetric is one metric's declared unit, direction and bound.
type specMetric struct {
	Name   string   `json:"name"`   // metric name
	Unit   string   `json:"unit"`   // unit the run prints it in
	Better string   `json:"better"` // "lower" or "higher"
	Bound  *float64 `json:"bound"`  // allowed worsening, share of the parent median; nil for layers
}

// recordLine is one line of a comparison file, as --record writes it.
type recordLine struct {
	Workload string  `json:"workload"` // workload name
	Seed     uint64  `json:"seed"`     // input seed
	Result   *result `json:"result"`   // the run's printed result
}

// appendRecord appends a run's result to a comparison file.
func appendRecord(path, workload string, seed uint64, res *result) error {
	b, err := json.Marshal(recordLine{workload, seed, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a comparison file, grouping results by workload in
// file order.
func readRecords(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rl recordLine
		if err := json.Unmarshal(sc.Bytes(), &rl); err != nil || rl.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a --record line (err %v)", path, line, err)
		}
		out[rl.Workload] = append(out[rl.Workload], rl.Result)
	}
	return out, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so spreads read the same as the acceptance check computes
// them. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict compares one metric's two sides.
type verdict struct {
	pairs, wins, losses int
	base, change        [3]float64 // quartiles
	spread              float64    // parent IQR / parent median
	outcome             string
}

// judge applies the comparison rule to paired runs of one metric.
func judge(base, change []float64, m specMetric) verdict {
	var v verdict
	v.base[0], v.base[1], v.base[2] = quartiles(base)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.pairs = min(len(base), len(change))
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(change[i], base[i]):
			v.wins++
		case better(base[i], change[i]):
			v.losses++
		}
	}
	iqr := v.base[2] - v.base[0]
	if v.base[1] != 0 {
		v.spread = iqr / math.Abs(v.base[1])
	}
	gap := v.change[1] - v.base[1]
	if m.Better == "higher" {
		gap = -gap
	}
	// gap > 0 means the change's median is worse.
	switch {
	case v.pairs >= 10 && float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(gap) > iqr && gap < 0:
		v.outcome = "gain"
	case m.Bound == nil:
		v.outcome = "no bound"
	case v.spread > *m.Bound && !allBetter(change, base, better):
		v.outcome = "unresolved"
	case v.base[1] != 0 && gap/math.Abs(v.base[1]) > *m.Bound:
		v.outcome = "regressed"
	default:
		v.outcome = "within bound"
	}
	return v
}

// allBetter reports whether every change run beats every base run.
func allBetter(change, base []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// runCompare prints the comparison of every metric on every workload
// present in both files, one row each.
func runCompare(w io.Writer, specPath, basePath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range base {
		if _, ok := change[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both %s and %s", basePath, changePath)
	}
	fmt.Fprintf(w, "%-12s %-32s %-32s %-32s %7s %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, wl := range names {
		b, c := base[wl], change[wl]
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(bv, cv, m)
			fmt.Fprintf(w, "%-12s %-32s %-32s %-32s %3d/%-3d %s (parent spread %.1f%%)\n", wl, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", v.base[0], v.base[1], v.base[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.change[0], v.change[1], v.change[2]),
				v.wins, v.pairs, v.outcome, 100*v.spread)
		}
		bf, ba := totals(b)
		cf, ca := totals(c)
		fmt.Fprintf(w, "%-12s %-32s failed %d of %d ops (parent) vs %d of %d (change)\n", wl, "operations", bf, ba, cf, ca)
	}
	return nil
}

// values collects one metric across runs, in order.
func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// totals sums failed and attempted operations over runs.
func totals(rs []*result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}
