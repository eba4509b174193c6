//go:build !race

package serve

import (
	"fmt"
	"runtime"
	"testing"

	"braidio/internal/units"
)

// heapPerMemberBudget bounds the live heap an engine holds per member
// between epochs: the member, its plan, its map entry and ordering
// slots, and its share of the retained epoch scratch. The plan arena is
// bounded by planChunk, and the routed ops, the dirty list, the job
// list and the drained queue are released at the end of any epoch they
// outgrow planChunk, so none of them is part of the per-member share,
// not even right after the cold plan, which routes, lists and plans
// every member at once (kept, its routed ops and drained queue add
// about 100 B per member).
const heapPerMemberBudget = 340

// TestHeapPerMemberBudget registers 100k members, runs the cold plan
// and five 1% drift epochs, and bounds the heap in use per member after
// the cold plan and after the drift epochs. One shard, as the
// serve-epoch benchmark runs at GOMAXPROCS 1: every shard keeps an
// arena of up to planChunk slots. Skipped under -short, and excluded
// under the race detector, which instruments allocations.
func TestHeapPerMemberBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-member heap budget skipped in -short mode")
	}
	const n, drifting = 100_000, 1_000
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// perMember reads the heap in use per member after step and holds it
	// to the budget.
	perMember := func(e *Engine, step string) {
		t.Helper()
		var after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		b := (float64(after.HeapInuse) - float64(before.HeapInuse)) / n
		t.Logf("heap in use after %s: %.0f B per member (budget %d)", step, b, heapPerMemberBudget)
		if b > heapPerMemberBudget {
			t.Errorf("heap in use after %s %.0f B per member exceeds the %d B budget", step, b, heapPerMemberBudget)
		}
	}

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
	perMember(e, "the cold plan")
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
	perMember(e, "five drift epochs")
}

// snapshotAllocBudget bounds the heap one snapshotNow allocates: the
// head streams through the journal's buffer, sized once to hold a
// chunk, so a snapshot allocates at most that buffer, a segment's file
// handles and a directory listing, not memory in proportion to the
// membership (json.Marshal of the whole record took 14.9 MB at 10,000
// members and 65.7 MB at 50,000).
const snapshotAllocBudget = 1 << 20

// TestSnapshotHeapBounded holds the heap allocated by one snapshotNow,
// of a planned membership of 10,000 and of 50,000, under
// snapshotAllocBudget. Excluded under the race detector, which
// instruments allocations.
func TestSnapshotHeapBounded(t *testing.T) {
	for _, n := range []int{10_000, 50_000} {
		cfg := testConfig(nil)
		cfg.Shards, cfg.Workers, cfg.QueueCap = 1, 1, n
		e, j, _, err := Open(t.TempDir(), cfg, JournalOptions{SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := e.Register(fmt.Sprintf("m%d", i), units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
				t.Fatal(err)
			}
		}
		mustEpoch(t, e)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e.snapshotNow(j)
		runtime.ReadMemStats(&after)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d members: one snapshot allocated %.3f MiB", n, float64(alloc)/(1<<20))
		if alloc > snapshotAllocBudget {
			t.Errorf("%d members: one snapshot allocated %d B, budget %d B", n, alloc, snapshotAllocBudget)
		}
	}
}
