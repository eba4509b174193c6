// Dirty-list scheduling: an epoch plans the shards' dirty lists, in
// chunks of planChunk jobs through each shard's arena, and nothing else.
// These tests pin the list's edge cases: chunk boundaries, members
// whose solve fails, and snapshot restore.

package serve

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// dirtyListLen is the number of members queued across every shard.
func dirtyListLen(e *Engine) int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += len(s.dirty)
		s.mu.RUnlock()
	}
	return n
}

// heldJobs reports a shard whose job list, between epochs, keeps more
// than planChunk slots or any entry: a member or an error the list
// would keep alive until the next epoch.
func heldJobs(e *Engine) error {
	for si, s := range e.shards {
		if c := cap(s.jobs); c > planChunk {
			return fmt.Errorf("shard %d keeps a %d-slot job list", si, c)
		}
		for k, j := range s.jobs[:cap(s.jobs)] {
			if j.m != nil || j.err != nil {
				return fmt.Errorf("shard %d job slot %d still holds a member or error", si, k)
			}
		}
	}
	return nil
}

// heldScratch reports the rest of the epoch scratch that, between
// epochs, keeps more than planChunk slots or any entry: the admission
// queue's spare block, the member slab's unused tail, and every
// shard's routed ops, dirty list and built plans (a test whose every
// solve succeeds leaves no member queued).
func heldScratch(e *Engine) error {
	e.queueMu.Lock()
	spare := e.queue.spare
	e.queueMu.Unlock()
	if spare != nil {
		if spare.next != nil {
			return fmt.Errorf("the queue's spare block chains another")
		}
		if err := held("spare queue block", spare.ops[:]); err != nil {
			return err
		}
	}
	if err := held("member slab tail", e.slab); err != nil {
		return err
	}
	for si, s := range e.shards {
		if err := held(fmt.Sprintf("shard %d routed ops", si), s.ops); err != nil {
			return err
		}
		if err := held(fmt.Sprintf("shard %d dirty list", si), s.dirty); err != nil {
			return err
		}
		if err := held(fmt.Sprintf("shard %d built plans", si), s.built); err != nil {
			return err
		}
	}
	return nil
}

// held reports a scratch slice with more than planChunk slots or a
// non-zero slot.
func held[T any](name string, s []T) error {
	if c := cap(s); c > planChunk {
		return fmt.Errorf("%s keeps %d slots", name, c)
	}
	for k, v := range s[:cap(s)] {
		if !reflect.ValueOf(&v).Elem().IsZero() {
			return fmt.Errorf("%s slot %d still holds an entry", name, k)
		}
	}
	return nil
}

// TestChunkedEpochs plans 10,000 members, more than two arena chunks at
// one shard and one chunk per shard at sixteen, through a cold plan, a
// 1% drift epoch, a hub change and another drift epoch. Every epoch's
// counts must be exact, every digest equal across the grid, the journal
// must verify against a fresh replay, and no epoch may leave its
// scratch behind: the cold plan's and the hub change's 10,000 jobs at
// one shard, and the cold plan's 10,000 routed ops and drained queue,
// are released before the next epoch runs.
func TestChunkedEpochs(t *testing.T) {
	const n = 10_000
	if n <= 2*planChunk {
		t.Fatalf("n = %d does not span more than two chunks of %d", n, planChunk)
	}
	// halve halves the energy of every hundredth member, offset off.
	halve := func(e *Engine, off int) {
		for i := off; i < n; i += 100 {
			energy := (0.4 + 0.01*float64(i%40)) / 2
			if err := e.Update(fmt.Sprintf("m%d", i), units.Joule(energy), units.Meter(0.5+0.015*float64(i%200))); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []struct{ planned, clean int }{
		{n, 0},               // cold plan
		{n / 100, n - n/100}, // 1% drift
		{n, 0},               // hub 10 -> 9 J moves every ratio 10%
		{n / 100, n - n/100}, // 1% drift again
	}
	var ref []string
	for _, shards := range []int{1, 16} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			cfg := testConfig(nil)
			cfg.Shards, cfg.Workers = shards, workers
			dir := filepath.Join(t.TempDir(), "journal.d")
			e, j, _, err := Open(dir, cfg, JournalOptions{SnapshotEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := e.Register(fmt.Sprintf("m%d", i), units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
					t.Fatal(err)
				}
			}
			var digests []string
			for k, w := range want {
				switch k {
				case 1:
					halve(e, 0)
				case 2:
					if err := e.SetHubEnergy(9); err != nil {
						t.Fatal(err)
					}
				case 3:
					halve(e, 1)
				}
				res := mustEpoch(t, e)
				if res.Planned != w.planned || res.Clean != w.clean || res.Members != n {
					t.Errorf("%s epoch %d: planned/clean/members %d/%d/%d, want %d/%d/%d",
						label, k+1, res.Planned, res.Clean, res.Members, w.planned, w.clean, n)
				}
				if got := dirtyListLen(e); got != 0 {
					t.Errorf("%s epoch %d: %d members still queued", label, k+1, got)
				}
				if err := heldJobs(e); err != nil {
					t.Errorf("%s epoch %d: %v", label, k+1, err)
				}
				if err := heldScratch(e); err != nil {
					t.Errorf("%s epoch %d: %v", label, k+1, err)
				}
				digests = append(digests, res.Digest)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := VerifyDir(dir)
			if err != nil {
				t.Fatalf("%s: verify: %v", label, err)
			}
			if st.Matched != len(want) {
				t.Errorf("%s: verify matched %d epochs, want %d", label, st.Matched, len(want))
			}
			if ref == nil {
				ref = digests
				continue
			}
			for k := range digests {
				if digests[k] != ref[k] {
					t.Errorf("%s epoch %d: digest %s, shards=1/workers=1 had %s", label, k+1, digests[k], ref[k])
				}
			}
		}
	}
}

// TestFailedMemberStaysQueued pins the failure path of the dirty list:
// an out-of-range member is re-planned, and fails, every epoch until an
// in-range update arrives, and an update that leaves it out of range
// does not queue it twice. Once planned, it leaves the dirty set.
func TestFailedMemberStaysQueued(t *testing.T) {
	e := NewEngine(testConfig(nil))
	const n = 10
	for i := 0; i < n; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), 1, units.Meter(0.5+0.2*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Register("far", 1, 1e6); err != nil {
		t.Fatal(err)
	}
	epoch := func(step string, wantPlanned, wantClean int, wantErr bool) {
		t.Helper()
		res, err := e.RunEpoch()
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %v", step, err, wantErr)
		}
		if res.Planned != wantPlanned || res.Clean != wantClean {
			t.Fatalf("%s: planned/clean %d/%d, want %d/%d", step, res.Planned, res.Clean, wantPlanned, wantClean)
		}
		queued := 0
		if wantErr {
			queued = 1
		}
		if got := dirtyListLen(e); got != queued {
			t.Fatalf("%s: %d members queued, want %d", step, got, queued)
		}
	}
	epoch("cold", n, 0, true)
	for k := 0; k < 3; k++ {
		epoch(fmt.Sprintf("quiet %d", k), 0, n, true)
	}
	if err := e.Update("far", 1, 2e6); err != nil {
		t.Fatal(err)
	}
	epoch("still out of range", 0, n, true)
	if err := e.Update("far", 1, 1); err != nil {
		t.Fatal(err)
	}
	epoch("back in range", 1, n, false)
	if _, ok := e.PlanFor("far"); !ok {
		t.Fatal("far has no plan after its in-range update")
	}
	epoch("quiet after", 0, n+1, false)
}

// TestRestoreSeedsDirtyList restarts an engine from a snapshot taken
// while two members were dirty (their solves had failed). Restore must
// queue both, so the first epoch after Open plans them and its digest
// equals the uninterrupted run's — one of them after an update brings
// it in range, the other failing again.
func TestRestoreSeedsDirtyList(t *testing.T) {
	// setup registers 20 members and two out of range, and runs two
	// epochs; the second writes the snapshot when e is journaled.
	setup := func(e *Engine) {
		for i := 0; i < 20; i++ {
			if err := e.Register(fmt.Sprintf("m%d", i), 1, units.Meter(0.5+0.1*float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"far1", "far2"} {
			if err := e.Register(id, 1, 1e6); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 2; k++ {
			if _, err := e.RunEpoch(); err == nil {
				t.Fatalf("epoch %d: the out-of-range members should fail", k+1)
			}
		}
	}
	uninterrupted := NewEngine(testConfig(nil))
	setup(uninterrupted)
	dir := filepath.Join(t.TempDir(), "journal.d")
	opts := JournalOptions{SnapshotEvery: 2}
	stopped, j, _, err := Open(dir, testConfig(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	setup(stopped)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	restored, j2, st, err := Open(dir, testConfig(rec), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.SnapshotEpoch != 2 || st.Epochs != 0 {
		t.Fatalf("recovered from snapshot epoch %d with %d tail epochs, want 2 and 0", st.SnapshotEpoch, st.Epochs)
	}
	if got := dirtyListLen(restored); got != 2 {
		t.Fatalf("restore queued %d members, want 2", got)
	}
	var results [2]EpochResult
	for i, e := range []*Engine{uninterrupted, restored} {
		if err := e.Update("far1", 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Update("m3", 0.5, 0.8); err != nil {
			t.Fatal(err)
		}
		res, err := e.RunEpoch()
		if err == nil {
			t.Fatal("far2 should still fail")
		}
		results[i] = res
	}
	if results[0] != results[1] {
		t.Fatalf("first epoch after Open: %+v, uninterrupted run: %+v", results[1], results[0])
	}
	if results[1].Planned != 2 {
		t.Fatalf("planned %d after restore, want 2 (far1 and m3; far2 fails)", results[1].Planned)
	}
	d := rec.Snapshot().ServeDirty
	if d[obs.DirtyRestore] != 2 || d[obs.DirtyRatio] != 1 {
		t.Fatalf("dirty marks after restore: %v, want 2 restore and 1 ratio", d)
	}
}
