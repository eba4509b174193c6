// Package sim provides the discrete-event simulator and the evaluation
// scenarios of §6.3: device pairs with asymmetric batteries transferring
// data until one side dies, compared against the Bluetooth and
// best-single-mode baselines (Figs. 15–18).
//
// The package has two layers. The scenario layer (scenario.go) answers
// the figures' questions with the chunked braid engine — fast enough for
// the full 10×10 device matrices. The event layer (this file and
// traffic.go) is a small discrete-event kernel used to drive packet-level
// mac.Sessions under realistic traffic in the examples and integration
// tests.
package sim

import (
	"container/heap"
	"fmt"

	"braidio/internal/units"
)

// event is a scheduled callback: fire runs at time, and may schedule
// further events; seq breaks ties between simultaneous events in FIFO
// order.
type event struct {
	time units.Second
	fire func()
	seq  int
}

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation kernel.
type Engine struct {
	now   units.Second
	queue eventQueue
	seq   int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() units.Second { return e.now }

// At schedules fn at an absolute time, which must not be in the past.
func (e *Engine) At(t units.Second, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", float64(t), float64(e.now)))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	heap.Push(&e.queue, &event{time: t, fire: fn, seq: e.seq})
	e.seq++
}

// Step fires the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.time
	ev.fire()
	return true
}

// Run fires events until the queue is empty or maxEvents have fired
// (guarding against runaway self-scheduling); it returns the number of
// events fired in this call.
func (e *Engine) Run(maxEvents int) int {
	fired := 0
	for fired < maxEvents && e.Step() {
		fired++
	}
	return fired
}
