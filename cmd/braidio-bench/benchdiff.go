package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readBenchJSON loads a BenchRecord written by -benchjson.
func readBenchJSON(path string) (*BenchRecord, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &BenchRecord{}
	if err := json.Unmarshal(buf, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// diffLine is one benchmark's before/after comparison.
type diffLine struct {
	// name carries go test's -N suffix when the new result ran above
	// GOMAXPROCS 1.
	name                 string
	oldNs, newNs         float64
	oldAllocs, newAllocs int64
	regressed            bool
}

// benchKey identifies a result within a record: its name and the
// GOMAXPROCS it ran at (0 in records that predate Procs).
type benchKey struct {
	name  string
	procs int
}

// minAllocIters is the iteration count below which allocs/op is not
// compared: a run of a handful of iterations charges its one-time setup
// (buffers, pools, caches warming) to those few ops, so its allocs/op
// is incomparable to a fully amortized baseline. ns/op is still
// compared — it is far less setup-dominated for the slow benchmarks
// this applies to.
const minAllocIters = 10

// diffBench compares two benchmark records. Results pair by name and
// GOMAXPROCS; a record that predates Procs pairs by name alone, as every
// committed BENCH_pr*.json does. A result whose name the other record
// holds only at other GOMAXPROCS values has its name returned in
// notComparable, and is neither a pass nor a regression. A benchmark
// regresses when its ns/op grows by more than threshold (a fraction:
// 0.25 = +25%) or its allocs/op grows beyond the same fractional slack —
// alloc counts are deterministic, so they get no measurement-noise
// allowance beyond the ratio itself; runs too short to amortize setup
// (or records predating iteration counts) skip the alloc check per
// minAllocIters. Benchmarks present on only one side are reported but
// never fail the diff (suites grow PR over PR).
func diffBench(oldRec, newRec *BenchRecord, threshold float64) (lines []diffLine, onlyOld, onlyNew, notComparable []string) {
	oldByKey := map[benchKey]BenchResult{}
	oldByName := map[string]BenchResult{}
	for _, r := range oldRec.Results {
		oldByKey[benchKey{r.Name, r.Procs}] = r
		oldByName[r.Name] = r
	}
	paired := map[benchKey]bool{}
	newNames := map[string]bool{}
	mismatched := map[string]bool{}
	for _, r := range newRec.Results {
		newNames[r.Name] = true
		o, ok := oldByKey[benchKey{r.Name, r.Procs}]
		if !ok {
			o, ok = oldByKey[benchKey{r.Name, 0}]
		}
		if !ok && r.Procs == 0 {
			o, ok = oldByName[r.Name]
		}
		if !ok {
			if _, held := oldByName[r.Name]; held {
				mismatched[r.Name] = true
			} else {
				onlyNew = append(onlyNew, r.Name)
			}
			continue
		}
		paired[benchKey{o.Name, o.Procs}] = true
		l := diffLine{
			name:  r.Name,
			oldNs: o.NsPerOp, newNs: r.NsPerOp,
			oldAllocs: o.AllocsPerOp, newAllocs: r.AllocsPerOp,
		}
		if r.Procs > 1 {
			l.name = fmt.Sprintf("%s-%d", r.Name, r.Procs)
		}
		if r.NsPerOp > o.NsPerOp*(1+threshold) {
			l.regressed = true
		}
		if o.AllocsPerOp >= 0 && r.AllocsPerOp >= 0 &&
			o.Iters >= minAllocIters && r.Iters >= minAllocIters &&
			float64(r.AllocsPerOp) > float64(o.AllocsPerOp)*(1+threshold) {
			l.regressed = true
		}
		lines = append(lines, l)
	}
	for k := range oldByKey {
		switch {
		case paired[k]:
		case newNames[k.name]:
			mismatched[k.name] = true
		default:
			onlyOld = append(onlyOld, k.name)
		}
	}
	for name := range mismatched {
		notComparable = append(notComparable, name)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	sort.Strings(notComparable)
	return lines, onlyOld, onlyNew, notComparable
}

// pct renders a before→after ratio as a signed percentage.
func pct(oldV, newV float64) string {
	if oldV <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
}

// runBenchDiff compares the baseline record at oldPath against newPath
// and prints a per-benchmark table. It returns the number of regressed
// benchmarks; callers exit nonzero when it is positive, which is what
// lets CI gate on a committed baseline.
func runBenchDiff(oldPath, newPath string, threshold float64) (int, error) {
	oldRec, err := readBenchJSON(oldPath)
	if err != nil {
		return 0, err
	}
	newRec, err := readBenchJSON(newPath)
	if err != nil {
		return 0, err
	}
	lines, onlyOld, onlyNew, notComparable := diffBench(oldRec, newRec, threshold)
	regressions := 0
	fmt.Printf("%-28s %12s %12s %9s %8s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns", "old al", "new al", "verdict")
	for _, l := range lines {
		verdict := "ok"
		if l.regressed {
			verdict = "REGRESSED"
			regressions++
		}
		fmt.Printf("%-28s %12.0f %12.0f %9s %8d %8d  %s\n",
			l.name, l.oldNs, l.newNs, pct(l.oldNs, l.newNs), l.oldAllocs, l.newAllocs, verdict)
	}
	for _, n := range notComparable {
		fmt.Printf("%-28s %s\n", n, "(not comparable: the records ran it at different GOMAXPROCS)")
	}
	for _, n := range onlyNew {
		fmt.Printf("%-28s %s\n", n, "(new benchmark, no baseline)")
	}
	for _, n := range onlyOld {
		fmt.Printf("%-28s %s\n", n, "(removed since baseline)")
	}
	fmt.Printf("\n%d compared, %d regressed (threshold %+.0f%%), %d new, %d removed, %d not comparable\n",
		len(lines), regressions, 100*threshold, len(onlyNew), len(onlyOld), len(notComparable))
	return regressions, nil
}
