// Command bench is braidio's end-to-end benchmark. It runs one of four
// seeded workloads against the simulator, the planning daemon's engine,
// the daemon over HTTP, and the paper's experiment registry; checks
// every output it produces; and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 they are its per-layer metrics, measured in a
// separate traced run that also prints the workload's full layer table
// (and writes its spans to --trace-out when given).
//
// Usage (from the repository root, after bench/run.sh has built it):
//
//	bench --workload sim --seed 1 --seconds 10 --trace 0
//	bench --workload repro --seed 1 --seconds 10 --trace 1 --trace-out trace.json
//	bench --compare base.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"braidio/internal/rng"
)

// row is one named number a workload reports.
type row struct {
	Name  string  `json:"name"`  // metric name
	Value float64 `json:"value"` // value as measured
	Unit  string  `json:"unit"`  // unit, as BENCHMARK.json names it
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	short    bool
	workDir  string
	serveBin string

	setupRepeats int           // minimum set-ups per run; setup_s is their median
	setupTime    time.Duration // keep repeating set-up until this much time has passed
	probeTime    time.Duration // how long each layer probe repeats
}

// deadline is when the measured phase of a run ends.
func (c *config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// maxSetups caps the set-up repetitions of a cheap set-up.
const maxSetups = 15

// repeatSetup runs setup at least cfg.setupRepeats times and until
// cfg.setupTime has passed, timing each run into out.setups at
// out.clock's reference speed. Before every repetition but the first it
// calls teardown, untimed, to release the previous set-up; the caller
// keeps the last one.
func (c *config) repeatSetup(out *outcome, setup, teardown func() error) error {
	start := time.Now()
	for i := 0; i < maxSetups && (i < c.setupRepeats || time.Since(start) < c.setupTime); i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		out.clock.mark()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		out.setups = append(out.setups, wall*out.clock.factor())
	}
	return nil
}

// outcome is what a workload hands back: its checked operations, the
// timings the end-to-end metrics are derived from, and (in a traced
// run) its layer numbers.
type outcome struct {
	attempted, failed int
	failures          []string

	clock   *hostClock    // scales setups, ops and traced to the reference speed; nil: wall time
	setups  dist          // set-up repetitions, seconds
	ops     dist          // untraced operation latencies, ms
	traced  dist          // traced operation latencies, ms (traced run only)
	cpu     time.Duration // CPU time of the process holding the state
	cpuOps  int           // operations that CPU time is divided by
	rss     dist          // its resident set, sampled over the measured phase, MiB
	rssMax  float64       // its peak resident set over the measured phase, MiB
	memLive float64       // in-process workloads: the runtime's memory in use after the phase, once collected, MiB

	layer  []row // the per-layer metrics BENCHMARK.json lists
	detail []row // the workload's own layer table
}

// check counts one checked operation, recording a failure when ok is
// false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// add appends a workload-specific number to the layer table.
func (o *outcome) add(name string, value float64, unit string) {
	o.detail = append(o.detail, row{name, value, unit})
}

// benchProcs is the GOMAXPROCS every in-process workload runs at. The
// engines still run their configured two workers (and set-up checks
// that one worker gives the same bytes), but on one OS thread. On a
// two-vCPU Xeon VM, two threads of a floating-point loop ran no faster
// than one, and two runs of the same sim input differed by 12% at
// GOMAXPROCS 2 against 0.6% at 1.
const benchProcs = 1

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config, *tracer) (*outcome, error){
	"sim":         runSim,
	"serve-epoch": runServeEpoch,
	"serve-http":  runServeHTTP,
	"repro":       runRepro,
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim, serve-epoch, serve-http or repro")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "traced run: write spans and layer metrics to this JSON file")
	flag.BoolVar(&cfg.short, "short", false, "smoke scale: small inputs, for tests")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	record := flag.String("record", "", "also append the result, with its workload and seed, to this JSONL file")
	compare := flag.Bool("compare", false, "compare two --record files: bench --compare base.jsonl change.jsonl")
	flag.Parse()
	// bench/run.sh builds both binaries here and runs from the checkout root.
	cfg.workDir, cfg.serveBin = ".bench_build/work", ".bench_build/bin/braidio-serve"

	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("--compare takes two JSONL files"))
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", cfg.seconds))
	}
	cfg.setupRepeats, cfg.setupTime, cfg.probeTime = 3, 2*time.Second, 300*time.Millisecond
	if cfg.short {
		cfg.setupRepeats, cfg.setupTime, cfg.probeTime = 1, 0, 20*time.Millisecond
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := execute(&cfg, run)
	if err != nil {
		fail(err)
	}
	if *record != "" {
		if err := appendRecord(*record, cfg.workload, cfg.seed, res); err != nil {
			fail(err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"` // value as measured
	Unit  string  `json:"unit"`  // unit, as BENCHMARK.json names it
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`   // every output check passed
	Attempted int               `json:"attempted"` // checked operations
	Failed    int               `json:"failed"`    // operations whose check failed
	Metrics   map[string]metric `json:"metrics"`   // by name
}

// execute runs one workload and turns its outcome into the printed
// result, after printing the human-readable layer table.
func execute(cfg *config, run func(*config, *tracer) (*outcome, error)) (*result, error) {
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := run(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if out.attempted == 0 || len(out.ops) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v s", cfg.workload, cfg.seconds)
	}
	for _, f := range out.failures {
		fmt.Println("FAIL:", f)
	}
	if out.clock != nil {
		out.add("host.slowdown", out.clock.slowdown(), "ratio")
	}
	e2e := endToEnd(out)
	rows := e2e
	if cfg.trace {
		ratio := 0.0
		if len(out.traced) > 0 {
			ratio = out.traced.median() / out.ops.median()
		}
		out.layer = append(out.layer,
			row{"trace.overhead_ratio", ratio, "ratio"},
			row{"process.cpu_ms_per_op", cpuPerOp(out), "ms"},
			row{"process.rss_peak_mb", out.rssMax, "MiB"})
		rows = out.layer
	}
	fmt.Printf("workload %s, seed %d, %d ops attempted, %d failed\n", cfg.workload, cfg.seed, out.attempted, out.failed)
	if out.clock != nil {
		fmt.Printf("  host: reference kernel %s; set-up and op times below are at its nominal %.1f ms\n",
			out.clock.refs.summary("ms"), refNominalMS)
	}
	fmt.Printf("  set-up: %s\n", out.setups.summary("s"))
	fmt.Printf("  op latency: %s\n", out.ops.summary("ms"))
	if len(out.traced) > 0 {
		fmt.Printf("  traced op latency: %s\n", out.traced.summary("ms"))
	}
	fmt.Printf("  rss: %s; peak %.1f MiB", out.rss.summary("MiB"), out.rssMax)
	if out.memLive > 0 {
		fmt.Printf("; in use after collection %.1f MiB", out.memLive)
	}
	fmt.Println()
	fmt.Printf("  cpu: %.3f ms per op\n", cpuPerOp(out))
	printRows("end-to-end", e2e)
	printRows("layers", out.detail)
	if cfg.trace {
		printRows("per-layer metrics", out.layer)
		if cfg.traceOut != "" {
			all := append(append([]row(nil), out.layer...), out.detail...)
			if err := tr.write(cfg.traceOut, cfg.workload, cfg.seed, all); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(rows)),
	}
	for _, r := range rows {
		res.Metrics[r.Name] = metric{r.Value, r.Unit}
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics every workload reports; the
// timings are at the reference speed where the workload has a clock.
// mem_mb is the runtime's memory in use after a collection for the
// workloads that hold their state in-process, and the median resident
// set sample for the daemon, which the benchmark cannot collect.
func endToEnd(o *outcome) []row {
	mem := o.memLive
	if mem == 0 {
		mem = o.rss.median()
	}
	return []row{
		{"setup_s", o.setups.median(), "s"},
		{"op_p50_ms", o.ops.median(), "ms"},
		{"mem_mb", mem, "MiB"},
	}
}

// cpuPerOp is the CPU time the process holding the state spent per
// operation of the measured phase, in ms.
func cpuPerOp(o *outcome) float64 {
	return ms(o.cpu) / float64(max(1, o.cpuOps))
}

// traceChooser decides which operations of a traced run are traced:
// a seeded coin, so the traced and untraced halves sample the
// workload's phases (snapshot epochs, epoch-tick offsets) alike. It
// returns the tracer for a traced operation and nil otherwise.
func traceChooser(tr *tracer, seed uint64) func() *tracer {
	coin := rng.New(seed ^ 0x7472616365)
	return func() *tracer {
		if tr != nil && coin.Bool() {
			return tr
		}
		return nil
	}
}

// printRows prints a titled, name-sorted table.
func printRows(title string, rows []row) {
	if len(rows) == 0 {
		return
	}
	sorted := append([]row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	fmt.Printf("  %s:\n", title)
	for _, r := range sorted {
		fmt.Printf("    %-36s %14.4f %s\n", r.Name, r.Value, r.Unit)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
