// Command braidio-sim simulates a Braidio link between two devices and
// reports the carrier-offload behaviour: the mode allocation, the bits
// delivered until a battery dies, the energy split, and the gains over
// the Bluetooth and best-single-mode baselines.
//
// Usage:
//
//	braidio-sim -tx "Apple Watch" -rx "iPhone 6S" -d 0.5
//	braidio-sim -tx "Nike Fuel Band" -rx "MacBook Pro 15" -d 0.5 -bidir
//	braidio-sim -list                              # device catalog
//	braidio-sim -txwh 0.5 -rxwh 80 -d 1.2          # custom capacities
//	braidio-sim -fleet 16 -members 4               # population of hub stars
//	braidio-sim -fleet 16 -cpuprofile cpu.pprof    # profile the fleet engine
//	braidio-sim -scenario net                      # relay reach + carrier sharing
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"braidio"
	"braidio/internal/ascii"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/mac"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

func main() {
	txName := flag.String("tx", "Apple Watch", "transmitting device (catalog name)")
	rxName := flag.String("rx", "iPhone 6S", "receiving device (catalog name)")
	txWh := flag.Float64("txwh", 0, "override transmitter capacity in Wh")
	rxWh := flag.Float64("rxwh", 0, "override receiver capacity in Wh")
	dist := flag.Float64("d", 0.5, "distance in meters")
	bidir := flag.Bool("bidir", false, "bidirectional transfer (equal data both ways)")
	matrix := flag.Bool("matrix", false, "print the full device-pair gain matrix (Fig. 15) and exit")
	tracePath := flag.String("trace", "", "run a packet-level session and write a per-frame CSV trace to this file")
	traceFrames := flag.Int("frames", 2000, "frames to send in -trace mode")
	faultSpec := flag.String("faults", "", "comma-separated fault injectors for -trace mode, e.g. "+
		"'ge:0.02:0.2,jam:5:30:2:25,drop:10:60:3,brownout:20:60:5:3,snr:-2:1' "+
		"(ge:pEnter:pExit[:badLoss] jam:start:period:dur[:crushdB] drop:start:period:dur "+
		"brownout:start:period:dur[:scale] snr:bias[:sigma])")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for stochastic fault injectors")
	list := flag.Bool("list", false, "list the device catalog and exit")
	fleetN := flag.Int("fleet", 0, "simulate a fleet of N independent hubs (uses -members, -workers, -seed, -horizon, -rounds)")
	scenario := flag.String("scenario", "", "run a named multi-hub scenario: 'net' demos 2-hop relay reach and shared-carrier scheduling (uses -workers, -horizon, -rounds)")
	membersM := flag.Int("members", 4, "wearables per hub in -fleet mode")
	workers := flag.Int("workers", 0, "fleet worker pool size (0 = GOMAXPROCS; results identical at any value)")
	seed := flag.Uint64("seed", 42, "fleet substream seed (same seed, same fleet)")
	horizon := flag.Float64("horizon", 3600, "simulated seconds per hub in -fleet mode")
	rounds := flag.Int("rounds", 12, "scheduling rounds per hub in -fleet mode")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file")
	metricsMode := flag.String("metrics", "", "print an observability snapshot after the run: table, json, or prom (Prometheus text exposition)")
	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	emitMetrics, err := setupMetrics(*metricsMode)
	if err != nil {
		fail(err)
	}
	defer emitMetrics()

	if *list {
		rows := [][]string{}
		for _, d := range braidio.Devices() {
			rows = append(rows, []string{d.Name, d.Class, fmt.Sprintf("%.2f Wh", float64(d.Capacity))})
		}
		ascii.Table(os.Stdout, []string{"Device", "Class", "Capacity"}, rows)
		return
	}

	if *matrix {
		printMatrix(braidio.Meter(*dist))
		return
	}

	if *scenario != "" {
		if *scenario != "net" {
			fail(fmt.Errorf("unknown -scenario %q (try 'net')", *scenario))
		}
		runNetScenario(netOpts{
			workers: *workers,
			horizon: *horizon,
			rounds:  *rounds,
			hub:     lookup(*rxName, *rxWh, "hub"),
			member:  lookup(*txName, *txWh, "member"),
		})
		return
	}

	if *fleetN > 0 {
		runFleet(fleetOpts{
			shards:  *fleetN,
			members: *membersM,
			workers: *workers,
			seed:    *seed,
			horizon: *horizon,
			rounds:  *rounds,
			hub:     lookup(*rxName, *rxWh, "hub"),
			member:  lookup(*txName, *txWh, "member"),
		})
		return
	}

	tx := lookup(*txName, *txWh, "tx")
	rx := lookup(*rxName, *rxWh, "rx")
	model := braidio.NewModel()
	d := braidio.Meter(*dist)

	fmt.Printf("%s (%.2f Wh) → %s (%.2f Wh) at %.2f m — regime %v\n\n",
		tx.Name, float64(tx.Capacity), rx.Name, float64(rx.Capacity), *dist, model.Regime(d))

	links := model.Characterize(d)
	rows := [][]string{}
	for _, l := range links {
		rows = append(rows, []string{
			l.Mode.String(), l.Rate.String(),
			fmt.Sprintf("%.2g", l.BER),
			fmt.Sprintf("%.3g", l.T.BitsPerJoule()),
			fmt.Sprintf("%.3g", l.R.BitsPerJoule()),
		})
	}
	ascii.Table(os.Stdout, []string{"Mode", "Rate", "BER", "TX bits/J", "RX bits/J"}, rows)
	fmt.Println()

	if *tracePath != "" {
		chain, err := parseFaults(*faultSpec, *faultSeed)
		if err != nil {
			fail(err)
		}
		runTrace(tx, rx, d, *tracePath, *traceFrames, chain)
		return
	}
	if *faultSpec != "" {
		fail(fmt.Errorf("-faults only applies to packet-level -trace runs"))
	}

	if *bidir {
		res, err := sim.RunBidirectional(model, d, tx, rx)
		if err != nil {
			fail(err)
		}
		fmt.Printf("bidirectional bits: %.4g (Bluetooth: %.4g) — gain %.3g× over %d role swaps\n",
			res.Bits, res.BluetoothBits, res.Gain(), res.Rounds)
		return
	}

	pr, err := sim.RunPair(model, d, tx, rx)
	if err != nil {
		fail(err)
	}
	res := pr.Braidio
	fmt.Printf("bits delivered: %.4g in %.3g s over %d braid epochs\n", res.Bits, float64(res.Duration), res.Epochs)
	fmt.Printf("energy: %s spent %.4g J, %s spent %.4g J (ratio %.3g, budgets %.3g)\n",
		tx.Name, float64(res.Drain1), rx.Name, float64(res.Drain2),
		float64(res.Drain1/res.Drain2), float64(tx.Capacity/rx.Capacity))
	for _, m := range phy.Modes {
		if f := res.ModeFraction(m); f > 0 {
			fmt.Printf("mode %-12s %5.1f%% of bits\n", m, 100*f)
		}
	}
	fmt.Printf("switches: %d (%.3g J total overhead)\n", res.Switches,
		float64(res.SwitchEnergy1+res.SwitchEnergy2))
	fmt.Printf("gain vs Bluetooth:        %.3g×\n", pr.GainVsBluetooth())
	fmt.Printf("gain vs best single mode: %.3g× (best: %v)\n", pr.GainVsBestMode(), pr.BestMode)
}

// runTrace drives a packet-level MAC session — optionally under an
// injected fault chain — and writes its per-frame CSV trace plus the
// session's resilience counters.
func runTrace(tx, rx braidio.Device, d braidio.Meter, path string, frames int, chain faults.Chain) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	cfg := mac.DefaultConfig(braidio.NewModel(), d, 1)
	cfg.Trace = f
	if len(chain) > 0 {
		cfg.Faults = chain
	}
	s, err := mac.NewSession(cfg, energy.NewBattery(tx.Capacity), energy.NewBattery(rx.Capacity))
	if err != nil {
		fail(err)
	}
	var sessionErr error
	for i := 0; i < frames && !s.Dead(); i++ {
		if _, err := s.SendFrame(240); err != nil {
			sessionErr = err
			break
		}
	}
	st := s.Stats()
	fmt.Printf("traced %d frames to %s (%d switches, %d fallbacks, %d retransmissions)\n",
		st.FramesDelivered, path, st.ModeSwitches, st.Fallbacks, st.Retransmissions)
	fmt.Printf("resilience: %d outages survived, %d flaps suppressed, %d backoff waits, loss rate %.3g\n",
		st.Outages, st.FallbacksSuppressed, st.BackoffWaits, s.LossRate())
	if len(chain) > 0 {
		counters := chain.Counters()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("injector %-16s %d events\n", name, counters[name])
		}
	}
	if sessionErr != nil {
		fmt.Printf("session ended early: %v\n", sessionErr)
	}
}

// parseFaults builds a fault chain from the -faults flag syntax. Each
// comma-separated element is kind:param:param…, with stochastic
// injectors salted from the fault seed by position.
func parseFaults(spec string, seed uint64) (faults.Chain, error) {
	if spec == "" {
		return nil, nil
	}
	var chain faults.Chain
	for i, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		args := make([]float64, 0, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("fault %q: bad number %q", part, f)
			}
			args = append(args, v)
		}
		// arg returns the i-th parameter or a default.
		arg := func(n int, def float64) float64 {
			if n < len(args) {
				return args[n]
			}
			return def
		}
		salt := seed + uint64(i)*0x9e3779b9
		switch fields[0] {
		case "ge":
			if len(args) < 2 {
				return nil, fmt.Errorf("fault %q: need ge:pEnter:pExit[:badLoss]", part)
			}
			chain = append(chain, faults.NewGilbertElliott(args[0], args[1], 0, arg(2, 1), salt))
		case "jam":
			if len(args) < 3 {
				return nil, fmt.Errorf("fault %q: need jam:start:period:dur[:crushdB]", part)
			}
			chain = append(chain, &faults.Jammer{
				Start: units.Second(args[0]), Period: units.Second(args[1]),
				Duration: units.Second(args[2]), SNRCrush: arg(3, 30), Loss: 1,
			})
		case "drop":
			if len(args) < 3 {
				return nil, fmt.Errorf("fault %q: need drop:start:period:dur", part)
			}
			chain = append(chain, &faults.Dropout{
				Start: units.Second(args[0]), Period: units.Second(args[1]), Duration: units.Second(args[2]),
			})
		case "brownout":
			if len(args) < 3 {
				return nil, fmt.Errorf("fault %q: need brownout:start:period:dur[:scale]", part)
			}
			chain = append(chain, &faults.Brownout{
				Start: units.Second(args[0]), Period: units.Second(args[1]),
				Duration: units.Second(args[2]), Scale: arg(3, 3), Affected: faults.SideTX,
			})
		case "snr":
			if len(args) < 1 {
				return nil, fmt.Errorf("fault %q: need snr:bias[:sigma]", part)
			}
			chain = append(chain, faults.NewSNRCorruptor(args[0], arg(1, 0), salt))
		default:
			return nil, fmt.Errorf("unknown fault kind %q (ge, jam, drop, brownout, snr)", fields[0])
		}
	}
	return chain, nil
}

// printMatrix renders the Fig. 15 gain heatmap at the given distance.
func printMatrix(d braidio.Meter) {
	mat, err := braidio.GainMatrix(d, nil)
	if err != nil {
		fail(err)
	}
	labels := make([]string, len(mat.Devices))
	for i, dev := range mat.Devices {
		labels[i] = dev.Name
	}
	fmt.Printf("gain over Bluetooth at %.2f m (column transmits to row):\n\n", float64(d))
	if err := ascii.Heatmap(os.Stdout, labels, labels, mat.Cells, "%.3g"); err != nil {
		fail(err)
	}
}

func lookup(name string, overrideWh float64, role string) braidio.Device {
	if overrideWh > 0 {
		return braidio.CustomDevice(fmt.Sprintf("custom-%s", role), braidio.WattHour(overrideWh))
	}
	d, ok := braidio.DeviceByName(name)
	if !ok {
		fail(fmt.Errorf("unknown device %q (try -list)", name))
	}
	return d
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "braidio-sim: %v\n", err)
	os.Exit(1)
}
