package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dist is a set of timing samples in one unit (ms unless noted).
type dist []float64

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (the "type 7" estimator), 0 for an empty set.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile.
func (d dist) median() float64 { return d.quantile(0.5) }

// tail returns the highest of p90, p95, p99 and p99.9 that still has at
// least ten samples beyond it, with its label; with fewer than 100
// samples it falls back to the maximum.
func (d dist) tail() (label string, v float64) {
	label, v = "max", d.quantile(1)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(len(d))*(1-p.q) >= 10 {
			label, v = p.name, d.quantile(p.q)
		}
	}
	return label, v
}

// summary renders a timing the way the README reports it: minimum,
// median, the deepest percentile with ten samples beyond it, and the
// count.
func (d dist) summary(unit string) string {
	label, v := d.tail()
	return fmt.Sprintf("min %.3f %s, p50 %.3f %s, %s %.3f %s, n=%d", d.quantile(0), unit, d.median(), unit, label, v, unit, len(d))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the calling process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUTime reads another process's user+system CPU time from
// /proc/<pid>/stat (clock ticks, 100 Hz on Linux).
func procCPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad cpu fields in /proc/%d/stat", pid)
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means the calling process.
func peakRSSMB(pid int) (float64, error) { return procStatusMB(pid, "VmHWM:") }

// procStatusMB reads one kB field of a process's /proc status in MiB;
// pid 0 means the calling process.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no %s in %s", field, path)
}

// rssEvery is how often watchMemory samples the resident set.
const rssEvery = 50 * time.Millisecond

// watchMemory restarts process pid's peak resident set (0: the calling
// process) and samples its resident set (VmRSS) every rssEvery until
// the returned stop is called, which stores the samples and the phase's
// peak in o. For the calling process, stop then collects the heap and
// stores the memory the Go runtime still holds in o.memLive: the heap
// in use, stacks and the runtime's own metadata (Sys − HeapIdle).
//
// The resident set moves with when collections happen to fall: in ten
// runs of serve-epoch the median sample spread 16% and one input gave
// 296–361 MiB, as the heap's high-water mark ratchets up on the
// collections that land in snapshot and hub-change epochs. Even after a
// collection that returns the free heap, ten runs read either 106 or
// 138 MiB: a large allocation placed on pages returned earlier stays
// unresident until written. The runtime's own count after a collection
// held within 2% over seven runs.
func watchMemory(o *outcome, pid int) (stop func() error, err error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var first error
		for {
			v, err := procStatusMB(pid, "VmRSS:")
			if err != nil && first == nil {
				first = err
			}
			o.rss = append(o.rss, v)
			select {
			case <-quit:
				done <- first
				return
			case <-t.C:
			}
		}
	}()
	return func() error {
		close(quit)
		if err := <-done; err != nil {
			return err
		}
		var err error
		if o.rssMax, err = peakRSSMB(pid); err != nil || pid != 0 {
			return err
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		o.memLive = float64(m.Sys-m.HeapIdle) / (1 << 20)
		return nil
	}, nil
}

// resetPeakRSS restarts a process's VmHWM from its current RSS (pid 0:
// the calling process, which first returns its free heap to the OS), so
// the peak read after the measured phase is that phase's own.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	} else {
		debug.FreeOSMemory()
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// allocCounter returns a reader of the process's cumulative heap
// allocation in a traced run, and a reader of zero otherwise: reading
// it stops the world, which the untraced run does not pay for.
func allocCounter(traced bool) func() uint64 {
	return func() uint64 {
		if !traced {
			return 0
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
}

// perCall times fn over n calls, repeating until at least minDur has
// elapsed, and returns the median per-call time over the repetitions in
// nanoseconds. Probes use it to time one layer on captured inputs.
func perCall(n int, minDur time.Duration, fn func()) float64 {
	if n <= 0 {
		return 0
	}
	var reps dist
	start := time.Now()
	for len(reps) < 5 || time.Since(start) < minDur {
		t0 := time.Now()
		fn()
		reps = append(reps, float64(time.Since(t0))/float64(n))
	}
	return reps.median()
}
