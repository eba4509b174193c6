package main

// The repro workload is a researcher regenerating the paper: every
// registered experiment, in registry order, run and rendered as text,
// pass after pass. It is the only workload that runs the waveform
// receive chain, the Monte Carlo BER sweeps and the packet-level MAC.
// Its inputs are the registry itself (each experiment carries its own
// fixed seeds), so --seed does not change them.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"braidio/internal/energy"
	"braidio/internal/experiments"
	"braidio/internal/linkcache"
	"braidio/internal/units"
)

// reproPass runs and renders every experiment once, returning the
// output hash and each experiment's time in ms.
func reproPass(t *tracer, exps []experiments.Experiment, op int) (string, []float64, error) {
	var buf bytes.Buffer
	times := make([]float64, len(exps))
	root := t.begin("repro.pass", 0, op)
	defer t.end(root)
	for i, e := range exps {
		sp := t.begin("experiments."+e.ID, root, op)
		t0 := time.Now()
		rep, err := e.Run()
		if err == nil {
			err = rep.Render(&buf)
		}
		times[i] = ms(time.Since(t0))
		t.end(sp)
		if err != nil {
			return "", nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil)), times, nil
}

// reproExperiments is the registry, or its cheap half at smoke scale.
func reproExperiments(short bool) []experiments.Experiment {
	all := experiments.All()
	if !short {
		return all
	}
	var cheap []experiments.Experiment
	for _, e := range all {
		switch e.ID {
		case "table1", "table2", "table5", "fig1", "fig9", "fig15", "fig16", "ext-hub", "ext-qos":
			cheap = append(cheap, e)
		}
	}
	return cheap
}

// runRepro is the repro workload.
func runRepro(cfg *config, tr *tracer) (*outcome, error) {
	exps := reproExperiments(cfg.short)
	out := &outcome{clock: &hostClock{}}
	// Set-up is the cold first pass; every repetition starts from an
	// empty link cache and must hash like the first.
	var ref string
	err := cfg.repeatSetup(out, func() error {
		h, _, err := reproPass(nil, exps, -1)
		if err == nil && ref != "" && h != ref {
			err = fmt.Errorf("repro: cold passes hash %s and %s", ref, h)
		}
		ref = h
		return err
	}, func() error {
		linkcache.Flush()
		return nil
	})
	if err != nil {
		return nil, err
	}
	stopMem, err := watchMemory(out, 0)
	if err != nil {
		return nil, err
	}
	if err := checkPinned(cfg, "repro", []string{ref}); err != nil {
		out.check(false, "%v", err)
	}

	perExp := make([]dist, len(exps))
	var passMS dist
	pick := traceChooser(tr, cfg.seed)
	cpu0, ref0 := cpuTime(), out.clock.spentTime()
	end := cfg.deadline()
	out.clock.mark()
	for op := 0; time.Now().Before(end); op++ {
		t := pick()
		traced := t != nil
		t0 := time.Now()
		h, times, err := reproPass(t, exps, op)
		wall := ms(time.Since(t0))
		scale := out.clock.factor()
		out.check(err == nil && h == ref, "repro pass %d: hash %s, want %s (err %v)", op, h, ref, err)
		if traced {
			out.traced = append(out.traced, wall*scale)
			continue
		}
		out.ops = append(out.ops, wall*scale)
		passMS = append(passMS, wall)
		for i, v := range times {
			perExp[i] = append(perExp[i], v)
		}
	}
	out.cpu = cpuTime() - cpu0 - (out.clock.spentTime() - ref0)
	out.cpuOps = len(out.ops) + len(out.traced)
	if err := stopMem(); err != nil {
		return nil, err
	}

	out.add("repro.pass_ms", passMS.median(), "ms")
	if !cfg.trace {
		return out, nil
	}
	sum := 0.0
	for i, e := range exps {
		out.add("experiments."+e.ID+"_ms", perExp[i].median(), "ms")
		sum += perExp[i].median()
	}
	out.add("experiments.sum_ms", sum, "ms")
	out.layer = runProbes(tr, cfg.probeTime, paperGrid())
	out.layer = append(out.layer, row{"linkcache.hit_ratio", reproHitRatio(exps), "ratio"})
	return out, nil
}

// reproHitRatio is the link cache's hit share over one warm pass.
func reproHitRatio(exps []experiments.Experiment) float64 {
	a := linkcache.Snapshot()
	if _, _, err := reproPass(nil, exps, -1); err != nil {
		return 0
	}
	return hitRatio(a, linkcache.Snapshot())
}

// paperGrid is the repro workload's probe input: the paper's device
// catalog paired both ways at 60 log-spaced distances from 0.1 to 10 m,
// the span the gain matrices and distance sweeps cover.
func paperGrid() probeInputs {
	var in probeInputs
	for k := 0; k < 60; k++ {
		d := units.Meter(0.1 * math.Pow(100, float64(k)/59))
		for _, tx := range energy.Catalog {
			for _, rx := range energy.Catalog {
				in.add(d, tx.NewBattery().Remaining(), rx.NewBattery().Remaining())
			}
		}
	}
	return in
}
