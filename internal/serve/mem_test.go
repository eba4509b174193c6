//go:build !race

package serve

import (
	"fmt"
	"runtime"
	"testing"

	"braidio/internal/units"
)

// heapPerMemberBudget bounds the live heap an engine holds per member
// once warm: the member, its plan, its map entry and ordering slots,
// and its share of the retained epoch scratch. The plan arena is
// bounded by planChunk, the job list is released at the end of any
// epoch it outgrows planChunk, and the routed ops, the dirty list and
// the drained queue once an epoch uses a quarter of their capacity, so
// none of them is part of the per-member share.
const heapPerMemberBudget = 400

// TestHeapPerMemberBudget registers 100k members, runs the cold plan
// and five 1% drift epochs, and bounds the heap in use per member. One
// shard, as the serve-epoch benchmark runs at GOMAXPROCS 1: every shard
// keeps an arena of up to planChunk slots. Skipped under -short, and
// excluded under the race detector, which instruments allocations.
func TestHeapPerMemberBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-member heap budget skipped in -short mode")
	}
	const n, drifting = 100_000, 1_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	cfg := testConfig(nil)
	cfg.Shards, cfg.Workers, cfg.QueueCap = 1, 1, n
	e := NewEngine(cfg)
	energy := func(i int) units.Joule { return units.Joule(0.4 + 0.01*float64(i%40)) }
	dist := func(i int) units.Meter { return units.Meter(0.5 + 0.015*float64(i%200)) }
	for i := 0; i < n; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), energy(i), dist(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustEpoch(t, e)
	for r := 0; r < 5; r++ {
		for i := r * drifting; i < (r+1)*drifting; i++ {
			if err := e.Update(fmt.Sprintf("m%d", i), energy(i)/2, dist(i)); err != nil {
				t.Fatal(err)
			}
		}
		if res := mustEpoch(t, e); res.Planned != drifting {
			t.Fatalf("drift epoch %d planned %d, want %d", r+1, res.Planned, drifting)
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	perMember := (float64(after.HeapInuse) - float64(before.HeapInuse)) / n
	t.Logf("heap in use: %.0f B per member (budget %d)", perMember, heapPerMemberBudget)
	if perMember > heapPerMemberBudget {
		t.Errorf("heap in use %.0f B per member exceeds the %d B budget", perMember, heapPerMemberBudget)
	}
}
