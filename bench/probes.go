package main

// Layer probes: each traced run replays its workload's own link inputs
// through the public planning kernels, one layer at a time, and reports
// the per-call cost. The kernels are the ones every workload runs
// (characterize, link cache, Eq. (1) solve), so every workload reports
// every probe, each at its own inputs.

import (
	"time"

	"braidio/internal/core"
	"braidio/internal/linkcache"
	"braidio/internal/modem"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// probeInputs are the links a workload plans: distances with the hub-
// and member-side budgets solved against them, and the co-channel
// interference levels (mW) its receivers see.
type probeInputs struct {
	dists  []units.Meter
	e1, e2 []units.Joule
	mw     []float64
}

// add appends one link.
func (p *probeInputs) add(d units.Meter, e1, e2 units.Joule) {
	p.dists = append(p.dists, d)
	p.e1 = append(p.e1, e1)
	p.e2 = append(p.e2, e2)
}

// maxProbeLinks caps how many links a probe replays per repetition, so
// a 100k-member workload probes in the same time as a small one.
const maxProbeLinks = 2048

// subsample keeps an evenly strided subset of at most maxProbeLinks.
func (p probeInputs) subsample() probeInputs {
	n := len(p.dists)
	if n <= maxProbeLinks {
		return p
	}
	var q probeInputs
	for i := 0; i < maxProbeLinks; i++ {
		k := i * n / maxProbeLinks
		q.add(p.dists[k], p.e1[k], p.e2[k])
	}
	q.mw = p.mw
	return q
}

// referenceInterferenceMW is the interference probe level for workloads
// whose links see none: one co-channel hub carrier 2 km away, the
// far-cluster interference the sim workload's network plans under.
func referenceInterferenceMW(m *phy.Model) float64 {
	return m.OneWay.Received(phy.CarrierPower, 2000).Sub(m.FadeMargin).Watts().Milliwatts()
}

// runProbes times each kernel on the inputs, repeating each replay for
// dur and taking the median repetition, and returns the per-layer
// metrics, recording one span per probe.
func runProbes(tr *tracer, dur time.Duration, raw probeInputs) []row {
	in := raw.subsample()
	n := len(in.dists)
	m := phy.NewModel()
	var rows []row
	probe := func(name string, calls int, fn func()) {
		sp := tr.begin("probe."+name, 0, -1)
		rows = append(rows, row{name, perCall(calls, dur, fn), "ns"})
		tr.end(sp)
	}

	// The (scheme, target) pairs phy's SNR path inverts: one per mode and
	// rate it characterizes, at the range BER target.
	var schemes []modem.Scheme
	for _, mode := range phy.Modes {
		for _, r := range phy.Rates {
			if mode == phy.ModeActive && r != units.Rate1M {
				continue
			}
			schemes = append(schemes, phy.SchemeAt(mode, r))
		}
	}
	// Each repetition runs the pairs snrRounds times: a single pass takes
	// a few microseconds, too close to the clock's resolution.
	const snrRounds = 64
	var sink float64
	probe("modem.snr_for_ber_ns", snrRounds*len(schemes), func() {
		for r := 0; r < snrRounds; r++ {
			for _, s := range schemes {
				sink += modem.SNRForBER(s, phy.RangeBERTarget)
			}
		}
	})

	buf := make([]phy.ModeLink, 0, phy.NumModes)
	probe("phy.characterize_ns", n, func() {
		for _, d := range in.dists {
			buf = m.CharacterizeInto(buf, d)
		}
	})

	mw := in.mw
	if len(mw) == 0 {
		mw = []float64{referenceInterferenceMW(m)}
	}
	mi := *m
	probe("phy.characterize_sinr_ns", n, func() {
		for i, d := range in.dists {
			mi.Interference = mw[i%len(mw)]
			buf = mi.CharacterizeInto(buf, d)
		}
	})

	var cols phy.LinkColumns
	cols.Reset(n)
	probe("phy.characterize_columns_ns", n, func() {
		for k, d := range in.dists {
			m.CharacterizeColumns(&cols, k, d)
		}
	})

	view := linkcache.NewView(m)
	for _, d := range in.dists {
		view.Characterize(d)
	}
	probe("linkcache.view_characterize_ns", n, func() {
		for _, d := range in.dists {
			buf = view.Characterize(d)
		}
	})

	links := make([][]phy.ModeLink, n)
	for i, d := range in.dists {
		links[i] = m.Characterize(d)
	}
	var alloc core.Allocation
	probe("core.optimize_ns", n, func() {
		for i := range links {
			if len(links[i]) > 0 {
				_ = core.OptimizeInto(&alloc, nil, links[i], in.e1[i], in.e2[i])
			}
		}
	})

	var bs core.BatchScratch
	bs.Reset(n)
	copy(bs.Dists, in.dists)
	copy(bs.E1, in.e1)
	copy(bs.E2, in.e2)
	view.CharacterizeColumns(1, bs.Dists, &bs.Cols)
	probe("core.optimize_batch_ns", n, func() { core.OptimizeBatch(&bs, 1) })

	if sink == 0 {
		panic("bench: SNRForBER probe returned zero")
	}
	return rows
}
