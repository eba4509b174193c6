// Shard-count invariance: the sharded engine's whole observable record
// — epoch digests, journal bytes, snapshot bytes — must be bit-identical
// at any shard count and any worker count, and journals captured by the
// pre-shard (PR 7 era) single-lock engine must replay and recover
// digest-identically through it.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// shardGrid is the shard × worker matrix the invariance tests sweep.
var shardGrid = []struct{ shards, workers int }{
	{1, 1}, {1, 2}, {1, 8},
	{4, 1}, {4, 2}, {4, 8},
	{16, 1}, {16, 2}, {16, 8},
}

// driveSchedule runs a fixed, deterministic op schedule through an
// engine: a registration wave (with one member planted out of range, so
// the error path is part of the invariant), drift and jitter updates,
// an update racing ahead of its register in the same epoch, a hub
// budget change mid-stream, and a final quiet epoch. Returns the epoch
// results in order.
func driveSchedule(t *testing.T, e *Engine) []EpochResult {
	t.Helper()
	const n = 300
	for i := 0; i < n; i++ {
		energy := 0.4 + 0.01*float64(i%40)
		dist := 0.5 + 0.015*float64(i%200)
		if err := e.Register(fmt.Sprintf("m%d", i), units.Joule(energy), units.Meter(dist)); err != nil {
			t.Fatalf("register m%d: %v", i, err)
		}
	}
	// Planted failure: far outside the PHY model's reach.
	if err := e.Register("far", 1, 1e6); err != nil {
		t.Fatalf("register far: %v", err)
	}
	var results []EpochResult
	epoch := func() {
		res, _ := e.RunEpoch() // "far" fails every epoch; the digest covers it
		results = append(results, res)
	}
	epoch()

	// Round of drift (past 5% tolerance) + jitter (within it).
	for i := 0; i < 60; i++ {
		if err := e.Update(fmt.Sprintf("m%d", i), units.Joule(0.2+0.005*float64(i)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			t.Fatalf("update m%d: %v", i, err)
		}
	}
	for i := 60; i < 120; i++ {
		energy := (0.4 + 0.01*float64(i%40)) * 1.01
		if err := e.Update(fmt.Sprintf("m%d", i), units.Joule(energy), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			t.Fatalf("update m%d: %v", i, err)
		}
	}
	epoch()

	// Same-epoch ordering hazards: an update admitted before its
	// member's register (must be skipped), then the register, then a
	// post-register update (must apply); plus a hub change that every
	// shard must observe at the same admission position.
	if err := e.Update("late", 2, 2); err != nil {
		t.Fatalf("update late: %v", err)
	}
	if err := e.Register("late", 1, 1); err != nil {
		t.Fatalf("register late: %v", err)
	}
	if err := e.Update("late", 1.5, 1.2); err != nil {
		t.Fatalf("update late: %v", err)
	}
	if err := e.SetHubEnergy(6); err != nil {
		t.Fatalf("set hub: %v", err)
	}
	for i := 0; i < 30; i++ {
		energy := 0.4 + 0.01*float64(i%40)
		if err := e.Update(fmt.Sprintf("m%d", i*7%300), units.Joule(energy*1.004), units.Meter(0.5+0.015*float64(i*7%200))); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	epoch()
	epoch() // quiet epoch: only "far" re-plans (and re-fails)
	return results
}

// snapshotBytes marshals the engine's snapshot record (the exact bytes
// a segment head would carry, minus framing).
func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.queueMu.Lock()
	snap := e.buildSnapshot()
	e.queueMu.Unlock()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return b
}

// scheduleMarks is driveSchedule's exact count of dirty marks by reason:
// 302 registers (300, "far", "late"); 55 ratio drifts (m0–m39 halve
// their energy, m45–m59 fall more than 5% below it, m40–m44 and the 60
// jitters stay within); 300 hub marks (6 J moves every planned ratio
// 40%); no distance drift and no restore. Updates that reach a member
// already dirty — "late" after its register, the 30 after the hub
// change — and "far", failing every epoch, add no mark.
var scheduleMarks = [obs.NumDirtyReasons]uint64{
	obs.DirtyRegister: 302, obs.DirtyRatio: 55, obs.DirtyHub: 300,
}

// scheduleUpdates is driveSchedule's count of applied member updates:
// 120, then "late"'s second update and the 30 after the hub change.
// The update that precedes "late"'s register is skipped.
const scheduleUpdates = 151

// TestShardCountInvariance sweeps the shard × worker grid, with the
// recorder off and on, and demands identical epoch digests, identical
// journal bytes, and identical snapshot bytes everywhere, and with the
// recorder on, driveSchedule's exact register, update and dirty counts.
func TestShardCountInvariance(t *testing.T) {
	type outcome struct {
		results  []EpochResult
		journal  []byte
		snapshot []byte
	}
	var ref *outcome
	var refLabel string
	for _, g := range shardGrid {
		for _, recorded := range []bool{false, true} {
			label := fmt.Sprintf("shards=%d/workers=%d/recorder=%v", g.shards, g.workers, recorded)
			var rec *obs.Recorder
			if recorded {
				rec = obs.NewRecorder()
			}
			cfg := testConfig(rec)
			cfg.Shards = g.shards
			cfg.Workers = g.workers
			got := &outcome{}
			got.journal = capture(t, cfg, func(e *Engine) {
				got.results = driveSchedule(t, e)
				got.snapshot = snapshotBytes(t, e)
			})
			if rec != nil {
				snap := rec.Snapshot()
				if snap.ServeDirty != scheduleMarks {
					t.Errorf("%s: dirty marks by reason %v, want %v", label, snap.ServeDirty, scheduleMarks)
				}
				if snap.ServeRegisters != scheduleMarks[obs.DirtyRegister] || snap.ServeUpdates != scheduleUpdates {
					t.Errorf("%s: registers/updates %d/%d, want %d/%d", label,
						snap.ServeRegisters, snap.ServeUpdates, scheduleMarks[obs.DirtyRegister], scheduleUpdates)
				}
			}
			if ref == nil {
				ref, refLabel = got, label
				continue
			}
			if len(got.results) != len(ref.results) {
				t.Fatalf("%s: %d epochs, %s had %d", label, len(got.results), refLabel, len(ref.results))
			}
			for i := range got.results {
				if got.results[i] != ref.results[i] {
					t.Errorf("%s epoch %d: %+v\n%s: %+v", label, i+1, got.results[i], refLabel, ref.results[i])
				}
			}
			if !bytes.Equal(got.journal, ref.journal) {
				t.Errorf("%s: journal bytes diverge from %s (%d vs %d bytes)", label, refLabel, len(got.journal), len(ref.journal))
			}
			if !bytes.Equal(got.snapshot, ref.snapshot) {
				t.Errorf("%s: snapshot bytes diverge from %s:\n%s\nvs\n%s", label, refLabel, got.snapshot, ref.snapshot)
			}
		}
	}
	// The planted out-of-range member must actually exercise the error
	// path, or the invariance claim above is weaker than advertised.
	if ref.results[0].Planned != ref.results[0].Members-1 {
		t.Fatalf("expected exactly one failed plan, got %d planned of %d members",
			ref.results[0].Planned, ref.results[0].Members)
	}
}

// TestUpdateBeforeRegisterSameEpoch pins the pre-shard semantics the
// router's live flag preserves: an update admitted before its member's
// register in the same drain is skipped (it would have hit an unknown
// id under the single-lock engine), while one admitted after applies.
func TestUpdateBeforeRegisterSameEpoch(t *testing.T) {
	e := NewEngine(testConfig(nil))
	if err := e.Update("m", 2, 2); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := e.Register("m", 1, 1); err != nil {
		t.Fatalf("register: %v", err)
	}
	res := mustEpoch(t, e)
	// The early update must not apply: 1 register only.
	if res.Applied != 1 {
		t.Fatalf("applied = %d, want 1 (early update skipped)", res.Applied)
	}
	p, ok := e.PlanFor("m")
	if !ok {
		t.Fatal("no plan for m")
	}
	if p.Ratio != 10 { // hub 10 / register energy 1, not update energy 2
		t.Fatalf("plan ratio = %v, want 10 (register inputs, not the skipped update's)", p.Ratio)
	}
}

// TestPR7SingleStreamReplay replays a journal captured by the PR-7-era
// single-lock engine through the sharded engine across the full grid:
// every digest must still match bit for bit.
func TestPR7SingleStreamReplay(t *testing.T) {
	for _, g := range shardGrid {
		f, err := os.Open(filepath.Join("testdata", "pr7_single_stream.journal"))
		if err != nil {
			t.Fatal(err)
		}
		res, rerr := replayWith(f, Config{Shards: g.shards, Workers: g.workers})
		f.Close()
		if rerr != nil {
			t.Fatalf("shards=%d workers=%d: replay: %v", g.shards, g.workers, rerr)
		}
		if res.Matched != 8 {
			t.Fatalf("shards=%d workers=%d: matched %d digests, want 8", g.shards, g.workers, res.Matched)
		}
	}
}

// TestPR7JournalDirRecovery recovers a PR-7-era segmented journal
// directory (snapshot head + digest-bearing tail) through the sharded
// engine at several shard counts and verifies the tail digests are
// recomputed bit-identically.
func TestPR7JournalDirRecovery(t *testing.T) {
	want := []string{"ae28fa75b3c19866", "15feac3aa2d6ad17"}
	for _, g := range shardGrid {
		eng, stats, err := recoverEngine(filepath.Join("testdata", "pr7_journal_dir"), Config{Shards: g.shards, Workers: g.workers})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: recover: %v", g.shards, g.workers, err)
		}
		if stats.Matched != 2 {
			t.Fatalf("shards=%d workers=%d: matched %d tail digests, want 2", g.shards, g.workers, stats.Matched)
		}
		for i, d := range stats.Digests {
			if d != want[i] {
				t.Fatalf("shards=%d workers=%d: tail digest %d = %s, want %s", g.shards, g.workers, i, d, want[i])
			}
		}
		if got := eng.Stats().Members; got != 200 {
			t.Fatalf("shards=%d workers=%d: recovered %d members, want 200", g.shards, g.workers, got)
		}
	}
}

// TestShardDefaultsPowerOfTwo pins the config normalization: shard
// counts round up to a power of two and respect the cap.
func TestShardDefaultsPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {100, 128}, {1 << 20, maxShards},
	} {
		cfg := Config{Shards: tc.in}.withDefaults()
		if cfg.Shards != tc.want {
			t.Errorf("Shards %d normalized to %d, want %d", tc.in, cfg.Shards, tc.want)
		}
	}
	if d := (Config{}).withDefaults().Shards; d&(d-1) != 0 || d < 1 {
		t.Errorf("default shard count %d is not a power of two", d)
	}
}

// TestConcurrentReadsDuringEpochs is the contention smoke: readers
// hammer PlanFor and Stats while registers stream in and epochs run.
// Run under -race in CI; correctness here is "no race, no panic, reads
// always see either no plan or a complete one".
func TestConcurrentReadsDuringEpochs(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Shards = 8
	e := NewEngine(cfg)
	const n = 400
	for i := 0; i < n; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), 1, units.Meter(0.5+0.01*float64(i%100))); err != nil {
			t.Fatal(err)
		}
	}
	mustEpoch(t, e)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p, ok := e.PlanFor(fmt.Sprintf("m%d", i%n)); ok {
					if len(p.Fractions) == 0 || len(p.Fractions) != len(p.Blocks) {
						t.Error("torn plan read")
						return
					}
				}
				_ = e.Stats()
				i++
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = e.Update(fmt.Sprintf("m%d", i%n), units.Joule(0.5+0.001*float64(i)), units.Meter(0.5+0.01*float64(i%100)))
		}
	}()
	for i := 0; i < 10; i++ {
		mustEpoch(t, e)
	}
	close(stop)
	wg.Wait()
}

// TestApplyLatencySurfaced checks the satellite metric: epochs that
// applied operations must populate the apply-latency percentiles in
// Stats.
func TestApplyLatencySurfaced(t *testing.T) {
	e := NewEngine(testConfig(nil))
	if err := e.Register("m", 1, 1); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, e)
	st := e.Stats()
	if st.ApplyP50Millis <= 0 || st.ApplyP99Millis <= 0 {
		t.Fatalf("apply latency not recorded: p50 %v p99 %v", st.ApplyP50Millis, st.ApplyP99Millis)
	}
	if st.ApplyP99Millis < st.ApplyP50Millis {
		t.Fatalf("apply p99 %v < p50 %v", st.ApplyP99Millis, st.ApplyP50Millis)
	}
	if st.Shards < 1 {
		t.Fatalf("stats shards = %d", st.Shards)
	}
}
