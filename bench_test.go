package braidio

// The benchmark harness: one testing.B per table and figure of the
// paper's evaluation (DESIGN.md §4), plus the ablations DESIGN.md calls
// out and a few microbenchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark regenerates the complete artifact per iteration,
// so ns/op is the cost of reproducing that figure from scratch.

import (
	"testing"

	"braidio/internal/core"
	"braidio/internal/experiments"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
	"braidio/internal/rxchain"
	"braidio/internal/units"
)

// runExperiment benchmarks one registered experiment end to end.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables)+len(rep.Series)+len(rep.Matrices) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Tables.

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// Figures.

func BenchmarkFig1(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFig6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { runExperiment(b, "fig18") }

// Extensions beyond the paper.

func BenchmarkRxChain(b *testing.B)     { runExperiment(b, "rxchain") }
func BenchmarkExtHarvest(b *testing.B)  { runExperiment(b, "ext-harvest") }
func BenchmarkExtMobility(b *testing.B) { runExperiment(b, "ext-mobility") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationScheduler(b *testing.B) { runExperiment(b, "ablation-scheduler") }
func BenchmarkSwitchOverhead(b *testing.B)    { runExperiment(b, "ablation-switch") }
func BenchmarkAblationARQ(b *testing.B)       { runExperiment(b, "ablation-arq") }
func BenchmarkOffloadSolvers(b *testing.B)    { runExperiment(b, "ablation-solver") }
func BenchmarkAblationDiversity(b *testing.B) { runExperiment(b, "ablation-diversity") }

// Microbenchmarks of the decision-making hot paths.

// BenchmarkCharacterize measures the PHY link characterization — run at
// every allocation recompute.
func BenchmarkCharacterize(b *testing.B) {
	m := phy.NewModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if links := m.Characterize(0.5); len(links) != 3 {
			b.Fatal("unexpected link count")
		}
	}
}

// BenchmarkCharacterizeSpread measures one characterization at each of
// 1,024 distances spread evenly over 0.3–4.5 m, the span serve-epoch's
// members are drawn from. Unlike 0.5 m, where every mode passes at its
// fastest rate, at most of these distances some mode refuses one or more
// of its rates.
func BenchmarkCharacterizeSpread(b *testing.B) {
	m := phy.NewModel()
	dists := make([]units.Meter, 1024)
	for i := range dists {
		dists[i] = units.Meter(0.3 + 4.2*float64(i)/float64(len(dists)-1))
	}
	var links []phy.ModeLink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if links = m.CharacterizeInto(links, dists[i%len(dists)]); len(links) == 0 {
			b.Fatal("no link in range")
		}
	}
}

// BenchmarkOffloadOptimize measures the closed-form Eq. 1 solve.
func BenchmarkOffloadOptimize(b *testing.B) {
	links := phy.NewModel().Characterize(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(links, 7200, 720); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairTransfer measures one full battery-to-death braid run for
// a representative device pair.
func BenchmarkPairTransfer(b *testing.B) {
	watch, _ := DeviceByName("Apple Watch")
	phone, _ := DeviceByName("iPhone 6S")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPair(watch, phone, 0.5).Transfer(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGainMatrixBluetooth10 measures the full 10×10 Fig. 15 gain
// matrix at 0.5 m with the link cache on (the default) — the acceptance
// benchmark for the link cache and block-costing work, which must beat
// the seed's per-row-goroutine, map-heavy implementation by ≥ 3× while
// staying bit-identical.
func BenchmarkGainMatrixBluetooth10(b *testing.B) {
	devices := Devices()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := GainMatrix(0.5, devices)
		if err != nil {
			b.Fatal(err)
		}
		if m.Max() <= 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkGainMatrixBluetooth10Uncached is the same matrix with the
// link cache forced off — the contrast run that isolates what the cache
// contributes.
func BenchmarkGainMatrixBluetooth10Uncached(b *testing.B) {
	devices := Devices()
	linkcache.SetEnabled(false)
	defer linkcache.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := GainMatrix(0.5, devices)
		if err != nil {
			b.Fatal(err)
		}
		if m.Max() <= 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkSessionFrame measures the packet-level MAC per-frame cost.
func BenchmarkSessionFrame(b *testing.B) {
	watch, _ := DeviceByName("Apple Watch")
	phone, _ := DeviceByName("iPhone 6S")
	pair := NewPair(watch, phone, 0.5)
	s, err := pair.NewSession(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendFrame(240); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtLineCode(b *testing.B) { runExperiment(b, "ext-linecode") }

func BenchmarkExtHub(b *testing.B) { runExperiment(b, "ext-hub") }

func BenchmarkExtWakeup(b *testing.B) { runExperiment(b, "ext-wakeup") }
func BenchmarkExtQAM(b *testing.B)    { runExperiment(b, "ext-qam") }

func BenchmarkExtInventory(b *testing.B) { runExperiment(b, "ext-inventory") }
func BenchmarkExtOutage(b *testing.B)    { runExperiment(b, "ext-outage") }
func BenchmarkExtPump(b *testing.B)      { runExperiment(b, "ext-pump") }

func BenchmarkExtSensitivity(b *testing.B) { runExperiment(b, "ext-sensitivity") }

func BenchmarkExtQoS(b *testing.B) { runExperiment(b, "ext-qos") }

// BenchmarkRxChainSweepParallel measures the four-scenario §3.1 sweep
// (the cells of the rxchain experiment) through the pooled parallel
// sweep at 2000 bits per cell.
func BenchmarkRxChainSweepParallel(b *testing.B) {
	cfgs := []rxchain.Config{
		rxchain.DefaultConfig(units.Rate100k, 1),
		rxchain.DefaultConfig(units.Rate100k, 2),
		rxchain.DefaultConfig(units.Rate100k, 3),
		rxchain.DefaultConfig(units.Rate100k, 4),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rxchain.RunAll(cfgs, 2000, 0); err != nil {
			b.Fatal(err)
		}
	}
}
