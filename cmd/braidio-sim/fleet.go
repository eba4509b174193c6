package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"braidio"
	"braidio/internal/ascii"
	"braidio/internal/hub"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// fleetOpts carries the -fleet mode's knobs from main.
type fleetOpts struct {
	shards  int
	members int
	workers int
	seed    uint64
	horizon float64
	rounds  int
	hub     braidio.Device
	member  braidio.Device
}

// runFleet simulates a population of independent hub stars — shards ×
// members wearables — and prints the population summary plus a
// per-shard table. Member distances, loads, and mobility are drawn from
// each shard's private substream, so the same -seed reproduces the same
// fleet bit-for-bit at any -workers count.
func runFleet(o fleetOpts) {
	build := func(shard int, stream *braidio.RNG) (*hub.Hub, error) {
		h := hub.New(o.hub, nil)
		for j := 0; j < o.members; j++ {
			m := hub.Member{
				Device:   o.member,
				Distance: units.Meter(0.3 + 1.5*stream.Float64()),
				Load:     units.BitRate(1000 + stream.Intn(100000)),
			}
			// A third of the population wanders; walks own a split
			// stream so member order never perturbs distances.
			if stream.Intn(3) == 0 {
				m.Walk = sim.NewRandomWaypoint(0.2, 2.2, 0.5, 30, stream.Split())
			}
			if err := h.Add(m); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	f := &hub.Fleet{Shards: o.shards, Workers: o.workers, Seed: o.seed, Build: build}
	res, err := f.Run(units.Second(o.horizon), o.rounds)
	if err != nil {
		fail(err)
	}

	lp, _ := res.Solves()
	fmt.Printf("fleet: %d hubs × %d members over %.0f s (%d rounds, seed %d)\n\n",
		o.shards, o.members, o.horizon, o.rounds, o.seed)
	rows := [][]string{}
	for i, r := range res.Shards {
		if r == nil {
			rows = append(rows, []string{fmt.Sprint(i), "-", "-", "-", "-", "failed"})
			continue
		}
		status := "ok"
		if r.HubExhausted {
			status = fmt.Sprintf("died r%d", r.HubDiedRound)
		}
		rows = append(rows, []string{
			fmt.Sprint(i),
			fmt.Sprint(len(r.Members)),
			fmt.Sprintf("%.4g", r.TotalBits()),
			fmt.Sprintf("%.4g", float64(r.HubDrain)),
			fmt.Sprint(r.Quarantines),
			status,
		})
	}
	ascii.Table(os.Stdout, []string{"Hub", "Members", "Bits", "Hub J", "Quar", "Status"}, rows)
	fmt.Printf("\nfleet bits delivered: %.4g (hub energy %.4g J)\n",
		res.TotalBits(), float64(res.HubDrain()))
	fmt.Printf("hubs exhausted: %d/%d, members quarantined: %d\n",
		res.Exhausted(), o.shards, res.Quarantines())
	fmt.Printf("offload solves: %d LP\n", lp)
}

// startProfiles turns on the requested pprof outputs and returns the
// function that flushes them; the caller defers it so profiles cover
// the whole run.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // a settled heap, not allocation noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}
	}
}
