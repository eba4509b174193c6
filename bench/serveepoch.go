package main

// The serve-epoch workload is the daemon's engine without the network:
// admission, route, apply, plan, digest, journal and snapshot, driven
// in-process. Each epoch admits a window of drifting updates (which
// must re-plan) and a window of updates that jitter within tolerance
// (which must not); every 64th epoch is preceded by a hub budget change
// that re-plans every member, and every 16th writes a full snapshot.

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"braidio/internal/core"
	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/serve"
	"braidio/internal/units"
)

// serveScale is the membership and per-epoch update window.
type serveScale struct {
	members, window int
}

// Serve workload constants shared by serve-epoch and serve-http.
const (
	serveHubJ         = 10 // hub budget E1, the daemon default
	serveHubAltJ      = 9  // the alternate budget of hub-change epochs
	serveTolerance    = 0.05
	hubChangeEvery    = 64 // epochs between hub budget changes
	hubChangeAt       = 24 // epoch offset, never a snapshot epoch
	snapshotEvery     = 16 // epochs between journal snapshots
	serveChainEpochs  = 32 // epochs folded into the pinned digest chain
	serveJitterFactor = 1.01
)

// memberID names member i.
func memberID(i int) string { return "m" + strconv.Itoa(i) }

// members draws the seeded population: energy 0.2–2.0 J, distance
// 0.3–4.5 m.
func members(seed uint64, n int) (energies, distances []float64) {
	st := rng.New(seed ^ 0x73657276)
	energies = make([]float64, n)
	distances = make([]float64, n)
	for i := range energies {
		energies[i] = 0.2 + 1.8*st.Float64()
		distances[i] = 0.3 + 4.2*st.Float64()
	}
	return energies, distances
}

// driftPlan tracks each member's planned energy so the generator knows
// which updates must re-plan: a drifting update halves the member's
// energy (or restores it), a jitter update moves it 1% off the planned
// value, inside the 5% tolerance.
type driftPlan struct {
	base, dist []float64
	halved     []bool
	window     int
	cursor     int
}

// next returns epoch c's drifting and jittering (id, energy, distance)
// updates over disjoint windows that walk the membership.
func (p *driftPlan) next() (drift, jitter []serve.DeviceRequest) {
	n := len(p.base)
	energy := func(i int) float64 {
		if p.halved[i] {
			return p.base[i] / 2
		}
		return p.base[i]
	}
	for k := 0; k < p.window; k++ {
		i := (p.cursor + k) % n
		p.halved[i] = !p.halved[i]
		drift = append(drift, serve.DeviceRequest{ID: memberID(i), EnergyJ: energy(i), DistanceM: p.dist[i]})
	}
	for k := 0; k < p.window; k++ {
		i := (p.cursor + p.window + k) % n
		jitter = append(jitter, serve.DeviceRequest{ID: memberID(i), EnergyJ: energy(i) * serveJitterFactor, DistanceM: p.dist[i]})
	}
	p.cursor = (p.cursor + 2*p.window) % n
	return drift, jitter
}

// serveProbeInputs is the serve workloads' probe input: every member's
// distance against the hub budget and its own energy.
func serveProbeInputs(energies, distances []float64) probeInputs {
	var in probeInputs
	for i := range energies {
		in.add(units.Meter(distances[i]), serveHubJ, units.Joule(energies[i]))
	}
	return in
}

// serveConfig is the engine configuration both serve workloads use.
func serveConfig(n int, rec *obs.Recorder) serve.Config {
	return serve.Config{
		Workers:           2,
		QueueCap:          n + 1024,
		RatioTolerance:    serveTolerance,
		DistanceTolerance: serveTolerance,
		Window:            64,
		HubEnergy:         serveHubJ,
		Rec:               rec,
	}
}

// serveEpochState is one set-up: the engine and its journal.
type serveEpochState struct {
	eng     *serve.Engine
	journal *serve.Journal
}

// close closes the journal.
func (s *serveEpochState) close() error { return s.journal.Close() }

// setupServeEpoch opens a fresh journal directory, registers the
// membership and runs the cold bulk plan, which must plan everyone.
func setupServeEpoch(dir string, energies, distances []float64) (*serveEpochState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// A recorder, as the daemon runs with one.
	n := len(energies)
	eng, j, _, err := serve.Open(dir, serveConfig(n, obs.NewRecorder()), serve.JournalOptions{
		Sync: serve.SyncEpoch, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	s := &serveEpochState{eng: eng, journal: j}
	for i := range energies {
		if err := eng.Register(memberID(i), units.Joule(energies[i]), units.Meter(distances[i])); err != nil {
			s.close()
			return nil, err
		}
	}
	res, err := eng.RunEpoch()
	if err == nil && res.Planned != n {
		err = fmt.Errorf("serve-epoch: cold plan planned %d of %d members", res.Planned, n)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runServeEpoch is the serve-epoch workload.
func runServeEpoch(cfg *config, tr *tracer) (*outcome, error) {
	sc := serveScale{members: 100_000, window: 1000}
	if cfg.short {
		sc = serveScale{members: 2000, window: 20}
	}
	energies, distances := members(cfg.seed, sc.members)
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("serve-epoch-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	out := &outcome{clock: &hostClock{}}
	var s *serveEpochState
	err := cfg.repeatSetup(out, func() (err error) {
		s, err = setupServeEpoch(dir, energies, distances)
		return err
	}, func() error {
		err := s.close()
		s = nil
		runtime.GC()
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapPerMember := float64(mem.HeapInuse) / float64(sc.members)
	stopMem, err := watchMemory(out, 0)
	if err != nil {
		return nil, err
	}

	plan := &driftPlan{base: energies, dist: distances, halved: make([]bool, sc.members), window: sc.window}
	n := sc.members
	hubJ := float64(serveHubJ)
	chain := fnv.New64a()
	var chainHex string
	var digests []string
	var epochWallMS, admitNS, planMS, allocMB, snapMS, hubMS dist
	var driftResid, snapResid dist
	var charMS, solveMS, buildMS dist // traced drift epochs, from their replays
	var replay core.BatchScratch
	// The model serve.NewEngine builds for this configuration.
	view := linkcache.NewView(phy.NewModel())
	pick := traceChooser(tr, cfg.seed)
	alloc := allocCounter(cfg.trace)
	cpu0, ref0 := cpuTime(), out.clock.spentTime()
	end := cfg.deadline()
	out.clock.mark()
	for op := 0; time.Now().Before(end); op++ {
		t := pick()
		traced := t != nil
		epochNo := op + 2 // the cold plan was epoch 1
		hubChange := epochNo%hubChangeEvery == hubChangeAt
		root := t.begin("serve.cycle", 0, op)
		if hubChange {
			if hubJ == serveHubJ {
				hubJ = serveHubAltJ
			} else {
				hubJ = serveHubJ
			}
			if err := s.eng.SetHubEnergy(units.Joule(hubJ)); err != nil {
				return nil, err
			}
		}
		drift, jitter := plan.next()
		sp := t.begin("serve.admit", root, op)
		a0 := time.Now()
		for _, batch := range [][]serve.DeviceRequest{drift, jitter} {
			for _, u := range batch {
				if err := s.eng.Update(u.ID, units.Joule(u.EnergyJ), units.Meter(u.DistanceM)); err != nil {
					return nil, err
				}
			}
		}
		admitNS = append(admitNS, float64(time.Since(a0))/float64(len(drift)+len(jitter)))
		t.end(sp)

		sp = t.begin("serve.epoch", root, op)
		m0 := alloc()
		t0 := time.Now()
		res, err := s.eng.RunEpoch()
		epochMS := ms(time.Since(t0))
		m1 := alloc()
		t.end(sp)
		t.end(root)
		scale := out.clock.factor()

		wantPlanned, wantClean := len(drift), n-len(drift)
		if hubChange {
			wantPlanned, wantClean = n, 0
		}
		out.check(err == nil && res.Planned == wantPlanned && res.Clean == wantClean && res.Members == n,
			"serve-epoch epoch %d: planned %d clean %d (err %v), want %d/%d", res.Epoch, res.Planned, res.Clean, err, wantPlanned, wantClean)
		digests = append(digests, res.Digest)
		if len(digests) <= serveChainEpochs {
			chain.Write([]byte(res.Digest))
			if len(digests) == serveChainEpochs {
				chainHex = hex.EncodeToString(chain.Sum(nil))
			}
		}
		lastPlan := s.eng.Stats().LastPlanMillis
		switch {
		case hubChange:
			hubMS = append(hubMS, epochMS)
		case traced:
			out.traced = append(out.traced, epochMS*scale)
		default:
			out.ops = append(out.ops, epochMS*scale)
			epochWallMS = append(epochWallMS, epochMS)
			planMS = append(planMS, lastPlan)
			allocMB = append(allocMB, float64(m1-m0)/(1<<20))
			if int(res.Epoch)%snapshotEvery == 0 {
				snapMS = append(snapMS, epochMS)
				snapResid = append(snapResid, epochMS-lastPlan)
			} else {
				driftResid = append(driftResid, epochMS-lastPlan)
			}
		}
		if traced && !hubChange {
			// Replay the epoch's dirty set through the two kernels the
			// plan stage runs, at the hub budget it planned against.
			c, sv := replayPlan(t, view, &replay, drift, hubJ, op)
			charMS = append(charMS, c)
			solveMS = append(solveMS, sv)
			buildMS = append(buildMS, lastPlan-c-sv)
		}
	}
	out.cpu = cpuTime() - cpu0 - (out.clock.spentTime() - ref0)
	out.cpuOps = len(digests)
	if err := stopMem(); err != nil {
		return nil, err
	}
	st := s.eng.Stats()
	if err := s.close(); err != nil {
		out.check(false, "serve-epoch: journal close: %v", err)
	}

	// Recovery check: the journal must replay to the same digests.
	sp := tr.begin("serve.verify_dir", 0, -1)
	v0 := time.Now()
	vs, verr := serve.VerifyDir(dir)
	verifyS := time.Since(v0).Seconds()
	tr.end(sp)
	tail := digests
	if len(tail) > len(vs.Digests) {
		tail = tail[len(tail)-len(vs.Digests):]
	}
	out.check(verr == nil && vs.Matched == vs.Epochs && slices.Equal(tail, vs.Digests),
		"serve-epoch: journal verification: %d/%d epochs matched (err %v)", vs.Matched, vs.Epochs, verr)
	if chainHex != "" {
		if err := checkPinned(cfg, "serve-epoch", []string{chainHex}); err != nil {
			out.check(false, "%v", err)
		}
	}

	out.add("serve.epoch_p50_ms", epochWallMS.median(), "ms")
	out.add("serve.epoch_p95_ms", epochWallMS.quantile(0.95), "ms")
	out.add("serve.replan_all_ms", hubMS.median(), "ms")
	out.add("serve.replan_all_epochs", float64(len(hubMS)), "count")
	fmt.Printf("  hub-change epochs: %s\n", hubMS.summary("ms"))
	if !cfg.trace {
		return out, nil
	}
	apply := st.ApplyP50Millis
	digestJournal := driftResid.median() - apply
	out.add("serve.admit_ns", admitNS.median(), "ns")
	out.add("serve.apply_ms", apply, "ms")
	out.add("serve.plan_ms", planMS.median(), "ms")
	out.add("serve.characterize_ms", charMS.median(), "ms")
	out.add("serve.solve_ms", solveMS.median(), "ms")
	out.add("serve.build_commit_ms", buildMS.median(), "ms")
	out.add("serve.digest_journal_ms", digestJournal, "ms")
	out.add("serve.snapshot_ms", snapResid.median()-apply-digestJournal, "ms")
	out.add("serve.snapshot_epoch_ms", snapMS.median(), "ms")
	out.add("serve.alloc_mb_per_epoch", allocMB.median(), "MiB")
	out.add("serve.bytes_per_member", heapPerMember, "B")
	out.add("serve.verify_dir_s", verifyS, "s")
	out.add("serve.plan_for_ns", planForProbe(tr, cfg.probeTime, s.eng, n), "ns")

	out.layer = runProbes(tr, cfg.probeTime, serveProbeInputs(energies, distances))
	out.layer = append(out.layer, row{"linkcache.hit_ratio", 0, "ratio"})
	return out, nil
}

// replayPlan times the plan stage's two kernels on one epoch's dirty
// inputs: columnar characterization, then the batch Eq. (1) solve, at
// the epoch's two workers. It returns both times in ms.
func replayPlan(t *tracer, view *linkcache.View, bs *core.BatchScratch, dirty []serve.DeviceRequest, hubJ float64, op int) (charMS, solveMS float64) {
	bs.Reset(len(dirty))
	for i, u := range dirty {
		bs.Dists[i] = units.Meter(u.DistanceM)
		bs.E1[i] = units.Joule(hubJ)
		bs.E2[i] = units.Joule(u.EnergyJ)
	}
	sp := t.begin("replay.characterize_columns", 0, op)
	t0 := time.Now()
	view.CharacterizeColumns(2, bs.Dists, &bs.Cols)
	t1 := time.Now()
	t.end(sp)
	sp = t.begin("replay.optimize_batch", 0, op)
	core.OptimizeBatch(bs, 2)
	t2 := time.Now()
	t.end(sp)
	return ms(t1.Sub(t0)), ms(t2.Sub(t1))
}

// planForProbe times Engine.PlanFor over a strided sample of members.
func planForProbe(tr *tracer, dur time.Duration, eng *serve.Engine, n int) float64 {
	ids := make([]string, 0, 1024)
	for i := 0; i < 1024; i++ {
		ids = append(ids, memberID(i*n/1024))
	}
	sp := tr.begin("probe.serve.plan_for", 0, -1)
	defer tr.end(sp)
	return perCall(len(ids), dur, func() {
		for _, id := range ids {
			if _, ok := eng.PlanFor(id); !ok {
				panic("bench: no plan for " + id)
			}
		}
	})
}
