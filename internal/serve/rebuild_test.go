// Link-row reuse: a member re-planned at the exact distance its last
// plan was characterized at has its link row rebuilt from that plan's
// rate code instead of characterized. The test here holds every plan the
// engine commits to the PHY model and the Eq. (1) solve called directly,
// and pins the link-row counter to exact counts, through each way a
// re-plan can keep or move its distance.

package serve

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"braidio/internal/core"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// planInputs are the inputs a member's committed plan was solved from.
type planInputs struct {
	d      units.Meter
	e, hub units.Joule
}

// referencePlan solves in directly: phy.Characterize at the distance,
// core.Optimize on its links, and the block counts core.ScheduleBlocks
// lays out over the window.
func referencePlan(t *testing.T, in planInputs, window int) Plan {
	t.Helper()
	links := phy.NewModel().Characterize(in.d)
	a, err := core.Optimize(links, in.hub, in.e)
	if err != nil {
		t.Fatalf("reference solve at %v m: %v", float64(in.d), err)
	}
	p := Plan{Distance: float64(in.d), Ratio: float64(in.hub) / float64(in.e), Fractions: a.P, Bits: a.Bits}
	seq := core.ScheduleBlocks(links, a.P, window)
	for _, l := range links {
		p.Modes = append(p.Modes, l.Mode.String())
		slots := 0
		for _, m := range seq {
			if m == l.Mode {
				slots++
			}
		}
		p.Blocks = append(p.Blocks, slots)
	}
	return p
}

// samePlan compares every solved field of two plans bit for bit.
func samePlan(a, b Plan) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return bits(a.Distance, b.Distance) && bits(a.Ratio, b.Ratio) && bits(a.Bits, b.Bits) &&
		slices.Equal(a.Modes, b.Modes) && slices.Equal(a.Blocks, b.Blocks) &&
		slices.EqualFunc(a.Fractions, b.Fractions, bits)
}

// TestRebuiltRowsMatchPHY drives 2,000 members through a cold plan, an
// energy-only drift, a hub change, a distance move (one member out of
// range), a move back to the exact earlier distances, and a restart from
// the snapshot followed by two drifts, across shards {1, 16} × workers
// {1, 2, 8}. After every step each member's committed plan must equal
// the direct solve at the inputs of its last successful re-plan, every
// digest must match across the grid, and the link-row counter must read
// exactly how many rows were characterized and rebuilt: none
// characterized while distances hold, none rebuilt after a restart.
func TestRebuiltRowsMatchPHY(t *testing.T) {
	const n = 2000
	energy := func(i int) units.Joule { return units.Joule(0.4 + 0.01*float64(i%40)) }
	dist := func(i int) units.Meter { return units.Meter(0.5 + 0.015*float64(i%200)) }
	drifting := func(i int) bool { return i%10 == 0 } // 200 members; m0 wanders out of range
	const far = 1e6
	type step struct {
		name  string
		admit func(e *Engine) error
		// characterized and rebuilt are the step's exact link-row counts.
		characterized, rebuilt uint64
		failing                bool // m0 is out of range after the step
	}
	update := func(d func(i int) units.Meter, scale units.Joule) func(e *Engine) error {
		return func(e *Engine) error {
			for i := 0; i < n; i++ {
				if drifting(i) {
					if err := e.Update(fmt.Sprintf("m%d", i), energy(i)*scale, d(i)); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	moved := func(i int) units.Meter {
		if i == 0 {
			return far
		}
		return dist(i) * 1.5
	}
	before := []step{
		{"cold plan", func(e *Engine) error {
			for i := 0; i < n; i++ {
				if err := e.Register(fmt.Sprintf("m%d", i), energy(i), dist(i)); err != nil {
					return err
				}
			}
			return nil
		}, n, 0, false},
		{"energy drift", update(dist, 0.5), 0, 200, false},
		{"hub change", func(e *Engine) error { return e.SetHubEnergy(9) }, 0, n, false},
		{"distance move", update(moved, 0.5), 200, 0, true},
		// m0's last plan was made at dist(0), so its row is rebuilt; the
		// others were last planned at the moved distance.
		{"move back", update(dist, 0.5), 199, 1, false},
	}
	after := []step{
		{"drift after restore", update(dist, 1), 200, 0, false},
		{"drift again", update(dist, 0.5), 0, 200, false},
	}
	// want tracks each member's last successful plan inputs through the
	// steps; it is the same at every grid point.
	wantAfter := func(k int, all []step) []planInputs {
		want := make([]planInputs, n)
		hub := units.Joule(10)
		for s := 0; s <= k; s++ {
			for i := range want {
				in := want[i]
				switch all[s].name {
				case "cold plan":
					in = planInputs{dist(i), energy(i), hub}
				case "hub change":
					hub = 9
					in.hub = hub
				case "distance move":
					if drifting(i) && i != 0 {
						in.d = moved(i)
					}
				case "energy drift", "move back", "drift again":
					if drifting(i) {
						in = planInputs{dist(i), energy(i) / 2, hub}
					}
				case "drift after restore":
					if drifting(i) {
						in = planInputs{dist(i), energy(i), hub}
					}
				}
				want[i] = in
			}
		}
		return want
	}
	all := append(slices.Clone(before), after...)
	refs := map[planInputs]Plan{}
	var refDigests []string
	for _, shards := range []int{1, 16} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			var digests []string
			run := func(e *Engine, rec *obs.Recorder, k int) {
				t.Helper()
				s := all[k]
				prev := rec.Snapshot().ServeLinkRows
				if err := s.admit(e); err != nil {
					t.Fatal(err)
				}
				res, err := e.RunEpoch()
				if (err != nil) != s.failing {
					t.Fatalf("%s %s: epoch error %v, want failure %v", label, s.name, err, s.failing)
				}
				digests = append(digests, res.Digest)
				rows := rec.Snapshot().ServeLinkRows
				got := [2]uint64{rows[obs.LinkRowsCharacterized] - prev[obs.LinkRowsCharacterized], rows[obs.LinkRowsRebuilt] - prev[obs.LinkRowsRebuilt]}
				if got != [2]uint64{s.characterized, s.rebuilt} {
					t.Errorf("%s %s: link rows characterized/rebuilt %d/%d, want %d/%d", label, s.name, got[0], got[1], s.characterized, s.rebuilt)
				}
				checkPlans(t, label+" "+s.name, e, wantAfter(k, all), refs)
			}
			cfg := testConfig(nil)
			cfg.Shards, cfg.Workers = shards, workers
			dir := filepath.Join(t.TempDir(), "journal.d")
			opts := JournalOptions{SnapshotEvery: uint64(len(before))}
			cfg.Rec = obs.NewRecorder()
			e, j, _, err := Open(dir, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := range before {
				run(e, cfg.Rec, k)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			cfg.Rec = obs.NewRecorder()
			e, j, st, err := Open(dir, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.SnapshotEpoch != uint64(len(before)) || st.Epochs != 0 {
				t.Fatalf("%s: restored snapshot epoch %d with %d tail epochs, want %d and 0", label, st.SnapshotEpoch, st.Epochs, len(before))
			}
			checkPlans(t, label+" restore", e, wantAfter(len(before)-1, all), refs)
			for k := range after {
				run(e, cfg.Rec, len(before)+k)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if refDigests == nil {
				refDigests = digests
			} else if !slices.Equal(digests, refDigests) {
				t.Errorf("%s: digests %v, shards=1/workers=1 had %v", label, digests, refDigests)
			}
		}
	}
}

// checkPlans demands that every member's committed plan equal the
// direct solve at want's inputs; refs memoizes the solves.
func checkPlans(t *testing.T, label string, e *Engine, want []planInputs, refs map[planInputs]Plan) {
	t.Helper()
	for i, in := range want {
		ref, ok := refs[in]
		if !ok {
			ref = referencePlan(t, in, e.Config().Window)
			refs[in] = ref
		}
		got, ok := e.PlanFor(fmt.Sprintf("m%d", i))
		if !ok || !samePlan(got, ref) {
			t.Fatalf("%s: m%d plan %+v (found %v), want %+v", label, i, got, ok, ref)
		}
	}
}
