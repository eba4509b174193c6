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
// slots, and its share of the retained epoch scratch. The plan arena and
// the admission queue's spare block are bounded by planChunk, and the
// routed ops, the dirty list and the job list are released at the end of
// any epoch they outgrow planChunk, so none of them is part of the
// per-member share, not even right after the cold plan, which routes,
// lists and plans every member at once (kept, its routed ops and
// drained queue add about 100 B per member).
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

// Per-member bounds on what a registration wave allocates, from its
// admission to the end of its cold plan: the member, carved from a slab
// sized to the wave; its plan's one backing array; and its share of the
// admission queue's blocks, the routed ops, the job list, the orders,
// the dirty list and the shard map, each allocated once at its final
// size. One shard reads about 406 B and 1.004 objects per member; a
// queue regrown by append, one allocation per member and per plan slice,
// and a job list holding every plan read 841 B and 3.007.
const (
	waveBytesPerMember   = 440
	waveObjectsPerMember = 1.05
)

// TestRegistrationWaveAllocs registers 100,000 members and runs the
// cold plan at one shard, as the serve-epoch benchmark's set-up does,
// and bounds the bytes and objects the wave allocates per member. The
// ids are built first, so the count is the engine's alone. Skipped
// under -short, and excluded under the race detector, which instruments
// allocations.
func TestRegistrationWaveAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-member registration wave skipped in -short mode")
	}
	const n = 100_000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	cfg := testConfig(nil)
	cfg.Shards, cfg.Workers, cfg.QueueCap = 1, 1, n
	e := NewEngine(cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		if err := e.Register(id, units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			t.Fatal(err)
		}
	}
	if res := mustEpoch(t, e); res.Planned != n {
		t.Fatalf("cold plan planned %d of %d members", res.Planned, n)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	objects := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("registration wave: %.1f B and %.3f objects per member (bounds %d B, %.2f)", bytes, objects, waveBytesPerMember, waveObjectsPerMember)
	if bytes > waveBytesPerMember {
		t.Errorf("registration wave allocated %.1f B per member, bound %d B", bytes, waveBytesPerMember)
	}
	if objects > waveObjectsPerMember {
		t.Errorf("registration wave allocated %.3f objects per member, bound %.2f", objects, waveObjectsPerMember)
	}
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
