package sim

import "testing"

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	fired := e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("fire order %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestEngineSelfScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.At(e.Now()+0.5, tick)
		}
	}
	e.At(0.5, tick)
	e.Run(100)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5", e.Now())
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.At(e.Now()+1e-9, loop) }
	e.At(0, loop)
	if got := e.Run(100); got != 100 {
		t.Errorf("runaway loop fired %d, want capped at 100", got)
	}
}

func TestEnginePanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Step()
	for name, f := range map[string]func(){
		"past":   func() { e.At(1, func() {}) },
		"nil fn": func() { e.At(10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCBR(t *testing.T) {
	c := NewCBR(0.1, 100)
	a := c.Next(0)
	if a.Time != 0.1 || a.Bytes != 100 {
		t.Errorf("arrival = %+v", a)
	}
	if got := OfferedLoad(c); got != 8000 {
		t.Errorf("offered load = %v, want 8000 bps", got)
	}
}

func TestVideoStream(t *testing.T) {
	v := VideoStream(30, 5000)
	// 30 fps × 5 kB = 1.2 Mbps offered.
	if got := float64(OfferedLoad(v)); got != 1.2e6 {
		t.Errorf("offered load = %v, want 1.2e6", got)
	}
}

func TestTrafficValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"cbr period": func() { NewCBR(0, 1) },
		"cbr bytes":  func() { NewCBR(1, 0) },
		"video fps":  func() { VideoStream(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
