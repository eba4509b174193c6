package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent links a span to the span that
// caused it; Op groups the spans of one workload operation (-1 for
// set-up and layer probes).
type span struct {
	ID     int    `json:"id"`       // 1-based, in creation order
	Parent int    `json:"parent"`   // causing span's ID, 0 for a root
	Op     int    `json:"op"`       // workload operation, -1 outside them
	Name   string `json:"name"`     // layer the span times
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`   // since the tracer started, -1 while open
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is one span name's aggregate: calls, total time and self
// time (total minus the part covered by child spans), in ms.
type layerTime struct {
	Calls   int     `json:"calls"`    // closed spans
	TotalMS float64 `json:"total_ms"` // summed durations
	SelfMS  float64 `json:"self_ms"`  // summed durations less child spans
}

// layers aggregates closed spans by name. Children of one span never
// overlap in this benchmark (each workload calls layers sequentially
// within a span), so self time is the duration minus the children's sum.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-child[s.ID]) / 1e6
		out[s.Name] = lt
	}
	return out
}

// traceFile is what a traced run writes: its spans, their per-layer
// aggregates, and every layer metric the workload reports.
type traceFile struct {
	Workload string               `json:"workload"` // workload name
	Seed     uint64               `json:"seed"`     // input seed
	Layers   map[string]layerTime `json:"layers"`   // span aggregates by name
	Metrics  []row                `json:"metrics"`  // per-layer metrics and layer table
	Spans    []span               `json:"spans"`    // every span, by start time
}

// write saves the trace as JSON.
func (t *tracer) write(path, workload string, seed uint64, metrics []row) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Layers: t.layers(), Metrics: metrics, Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
