package experiments

import (
	"fmt"
	"math"

	"braidio/internal/core"
	"braidio/internal/field"
	"braidio/internal/phy"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// ablationCapacities are the budgets used by the braid ablations: small
// enough to run fast, asymmetric enough to braid.
const (
	ablC1 units.WattHour = 0.004
	ablC2 units.WattHour = 0.001
)

// AblationScheduler compares the default block schedule against the
// interleaved even-spread schedule: same proportions, very different
// switch counts.
func AblationScheduler() (*Report, error) {
	r := &Report{
		ID:    "ablation-scheduler",
		Title: "Block vs interleaved mode scheduling",
	}
	m := phy.NewModel()
	rows := [][]string{}
	for _, cfg := range []struct {
		name       string
		interleave bool
	}{{"block (default)", false}, {"interleaved", true}} {
		b := core.NewBraid(m, 0.3)
		b.Interleave = cfg.interleave
		res, err := b.RunFresh(ablC1, ablC2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			cfg.name,
			fmt.Sprintf("%.4g", res.Bits),
			fmt.Sprintf("%d", res.Switches),
			fmt.Sprintf("%.3g J", float64(res.SwitchEnergy1+res.SwitchEnergy2)),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "scheduler comparison at 0.3 m",
		Header: []string{"Scheduler", "Bits", "Switches", "Switch energy"},
		Rows:   rows,
	})
	r.AddNote("blocks pay a handful of switches per window; interleaving pays one per frame boundary")
	return r, nil
}

// AblationSwitchOverhead quantifies the Table 5 overheads' impact on
// delivered bits — validating the paper's "negligible" conclusion under
// block scheduling.
func AblationSwitchOverhead() (*Report, error) {
	r := &Report{
		ID:    "ablation-switch",
		Title: "Throughput cost of mode-switch overheads",
	}
	m := phy.NewModel()
	rows := [][]string{}
	for _, d := range []units.Meter{0.3, 1.5, 2.2} {
		with := core.NewBraid(m, d)
		without := core.NewBraid(m, d)
		without.IncludeSwitchOverhead = false
		rw, err := with.RunFresh(ablC1, ablC2)
		if err != nil {
			return nil, err
		}
		ro, err := without.RunFresh(ablC1, ablC2)
		if err != nil {
			return nil, err
		}
		loss := 1 - rw.Bits/ro.Bits
		rows = append(rows, []string{
			fmt.Sprintf("%.1f m", float64(d)),
			fmt.Sprintf("%.4g", ro.Bits),
			fmt.Sprintf("%.4g", rw.Bits),
			fmt.Sprintf("%.3f%%", 100*loss),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "bits with and without Table 5 overheads",
		Header: []string{"Distance", "Bits (no overhead)", "Bits (with)", "Loss"},
		Rows:   rows,
	})
	return r, nil
}

// AblationARQ compares the paper's ideal loss accounting against ARQ
// (whole-frame retransmission) semantics near the passive range edge.
func AblationARQ() (*Report, error) {
	r := &Report{
		ID:    "ablation-arq",
		Title: "Ideal vs ARQ loss accounting",
	}
	rows := [][]string{}
	for _, d := range []units.Meter{0.5, 2.6, 3.4} {
		ideal := phy.NewModel()
		arq := phy.NewModel()
		arq.Retransmit = true
		bi := core.NewBraid(ideal, d)
		ba := core.NewBraid(arq, d)
		ri, err := bi.RunFresh(ablC1, ablC2)
		if err != nil {
			return nil, err
		}
		ra, err := ba.RunFresh(ablC1, ablC2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1f m", float64(d)),
			fmt.Sprintf("%.4g", ri.Bits),
			fmt.Sprintf("%.4g", ra.Bits),
			fmt.Sprintf("%.2f", ra.Bits/ri.Bits),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "delivered bits under the two loss models",
		Header: []string{"Distance", "Ideal", "ARQ", "ARQ/Ideal"},
		Rows:   rows,
	})
	r.AddNote("ARQ semantics penalize operation near range edges where frame error rates explode before BER crosses the 1%% target")
	return r, nil
}

// AblationSolver cross-checks the closed-form optimizer against the
// simplex LP on the Eq. 1 problem across battery ratios.
func AblationSolver() (*Report, error) {
	r := &Report{
		ID:    "ablation-solver",
		Title: "Closed-form vertex optimizer vs simplex LP (Eq. 1)",
	}
	links := phy.NewModel().Characterize(0.3)
	rows := [][]string{}
	worst := 0.0
	for _, ratio := range []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000} {
		direct, err := core.Optimize(links, units.Joule(1000*ratio), 1000)
		if err != nil {
			return nil, err
		}
		lpBits := math.NaN()
		status := "infeasible (clamped regime)"
		if viaLP, err := core.SolveEq1(links, units.Joule(1000*ratio), 1000); err == nil {
			lpBits = viaLP.Bits
			status = "agrees"
			if rel := math.Abs(direct.Bits-lpBits) / direct.Bits; rel > worst {
				worst = rel
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%g:1", ratio),
			fmt.Sprintf("%.6g", direct.Bits),
			fmt.Sprintf("%.6g", lpBits),
			status,
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "bits until death by solver",
		Header: []string{"E1:E2", "Closed form", "Simplex LP", "Status"},
		Rows:   rows,
	})
	r.AddNote("worst relative disagreement where both solve: %.2g", worst)
	return r, nil
}

// AblationDiversity quantifies what the second antenna buys: the worst
// null depth with and without diversity across the Fig. 6 sweep.
func AblationDiversity() (*Report, error) {
	r := &Report{
		ID:    "ablation-diversity",
		Title: "Antenna diversity on/off",
	}
	scene := field.PaperScene()
	start := field.Vec2{X: 1.0, Y: 0.8}
	end := field.Vec2{X: 1.0, Y: 2.5}
	without := scene.LineSweep(start, end, 4000, false)
	with := scene.LineSweep(start, end, 4000, true)
	usable := func(s stats.Series, n int) float64 {
		ok := 0
		for i := 0; i < n; i++ {
			x := 1.7 * float64(i) / float64(n-1)
			if s.Interpolate(x) >= 5 {
				ok++
			}
		}
		return float64(ok) / float64(n)
	}
	rows := [][]string{
		{"without", fmt.Sprintf("%.1f dB", field.WorstCase(without)), fmt.Sprintf("%.1f%%", 100*usable(without, 1000))},
		{"with λ/8 diversity", fmt.Sprintf("%.1f dB", field.WorstCase(with)), fmt.Sprintf("%.1f%%", 100*usable(with, 1000))},
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "null depth and usable fraction of the 0.3–2 m sweep (≥5 dB)",
		Header: []string{"Configuration", "Worst SNR", "Usable positions"},
		Rows:   rows,
	})
	return r, nil
}
