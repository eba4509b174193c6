package braidio

import (
	"fmt"
	"math"

	"braidio/internal/baseline"
	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/hub"
	"braidio/internal/mac"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// Core types, aliased from the implementation packages so users of this
// package never need an internal import path.
type (
	// Mode is one of Braidio's three operating modes.
	Mode = phy.Mode
	// Regime is an operating regime of Fig. 8 (which modes reach).
	Regime = phy.Regime
	// Model is the calibrated link-level channel model.
	Model = phy.Model
	// Link characterizes one mode at a distance: rate, BER, goodput,
	// and per-bit costs at both endpoints.
	Link = phy.ModeLink
	// Allocation is a carrier-offload solution: the fraction of traffic
	// per mode.
	Allocation = core.Allocation
	// Result summarizes a braid run: bits moved, drains, mode mix,
	// switches.
	Result = core.Result
	// Device is a catalog entry (name and battery capacity).
	Device = energy.Device
	// Battery is a drainable energy budget.
	Battery = energy.Battery
	// Matrix is a device×device gain matrix (Figs. 15–17).
	Matrix = sim.Matrix
	// Session is the packet-level braided MAC session.
	Session = mac.Session
	// SessionConfig parameterizes a Session.
	SessionConfig = mac.Config
	// Bluetooth is the Table 1 baseline radio model.
	Bluetooth = baseline.Bluetooth

	// Meter is a distance in meters.
	Meter = units.Meter
	// Watt is a power in watts.
	Watt = units.Watt
	// Joule is an energy in joules.
	Joule = units.Joule
	// WattHour is a battery capacity unit.
	WattHour = units.WattHour
	// BitRate is a link speed in bits/second.
	BitRate = units.BitRate
	// Second is a wall-clock duration in seconds.
	Second = units.Second
)

// The three operating modes, named after the receiver state.
const (
	// ModeActive runs a carrier at both ends.
	ModeActive = phy.ModeActive
	// ModePassive runs the carrier at the transmitter only.
	ModePassive = phy.ModePassive
	// ModeBackscatter runs the carrier at the receiver only.
	ModeBackscatter = phy.ModeBackscatter
)

// The operating regimes of Fig. 8.
const (
	// RegimeA has all three links available.
	RegimeA = phy.RegimeA
	// RegimeB has lost backscatter.
	RegimeB = phy.RegimeB
	// RegimeC has only the active link.
	RegimeC = phy.RegimeC
	// OutOfRange has no usable link.
	OutOfRange = phy.OutOfRange
)

// Calibrated bitrates of the prototype links.
const (
	Rate1M   = units.Rate1M
	Rate100k = units.Rate100k
	Rate10k  = units.Rate10k
)

// NewModel returns the calibrated PHY model of two Braidio boards in
// free space — the paper's cleared-room setting.
func NewModel() *Model { return phy.NewModel() }

// Devices returns the Fig. 1 device catalog (ten devices from the Nike
// Fuel Band to the MacBook Pro 15), ordered by battery capacity.
func Devices() []Device { return energy.Catalog }

// DeviceByName looks up a catalog device.
func DeviceByName(name string) (Device, bool) { return energy.DeviceByName(name) }

// CustomDevice builds a device with an arbitrary battery capacity for
// scenarios beyond the catalog.
func CustomDevice(name string, capacity WattHour) Device {
	return Device{Name: name, Capacity: capacity, Class: "custom"}
}

// BluetoothBaseline returns the Bluetooth radio the evaluation compares
// against.
func BluetoothBaseline() Bluetooth { return baseline.Default }

// Fault-injection types, aliased from internal/faults: deterministic,
// seed-driven channel impairments that compose through FaultChain and
// plug into packet-level sessions (WithSessionFaults) and hub members
// (HubMember.Faults). With no injector configured every code path is
// bit-identical to a fault-free build.
type (
	// FaultInjector is one composable channel impairment.
	FaultInjector = faults.Injector
	// FaultChain applies injectors in order.
	FaultChain = faults.Chain
	// FaultEnv is the per-frame-attempt channel context injectors
	// transform.
	FaultEnv = faults.Env
	// GilbertElliott is the two-state Markov burst-loss channel.
	GilbertElliott = faults.GilbertElliott
	// Jammer is a periodic interference burst crushing SNR.
	Jammer = faults.Jammer
	// CarrierDropout is a periodic total carrier loss.
	CarrierDropout = faults.Dropout
	// Brownout is a periodic harvesting interruption scaling battery
	// drain on one side.
	Brownout = faults.Brownout
	// SNRCorruptor biases/noises every SNR observation.
	SNRCorruptor = faults.SNRCorruptor
	// Walk is a mobility trace: separation over time.
	Walk = sim.Walk
	// StaticWalk is a constant separation.
	StaticWalk = sim.StaticWalk
	// LinearWalk moves between two separations over a duration.
	LinearWalk = sim.LinearWalk
)

// NewGilbertElliott builds a deterministic burst-loss channel (see
// faults.NewGilbertElliott). It panics if pEnter, pExit, goodLoss or
// badLoss lies outside [0, 1].
func NewGilbertElliott(pEnter, pExit, goodLoss, badLoss float64, seed uint64) *GilbertElliott {
	return faults.NewGilbertElliott(pEnter, pExit, goodLoss, badLoss, seed)
}

// NewSNRCorruptor builds a deterministic SNR-estimate corruptor (see
// faults.NewSNRCorruptor). It panics if sigma is negative.
func NewSNRCorruptor(bias, sigma float64, seed uint64) *SNRCorruptor {
	return faults.NewSNRCorruptor(bias, sigma, seed)
}

// Typed resilience errors, re-exported so callers can errors.Is against
// them without internal imports.
var (
	// ErrLinkDead reports a link that stayed down through the MAC's
	// bounded recovery attempts.
	ErrLinkDead = core.ErrLinkDead
	// ErrMemberQuarantined reports a hub member removed from the
	// round-robin after repeated failed rounds.
	ErrMemberQuarantined = hub.ErrMemberQuarantined
	// ErrSessionExhausted reports a SendFrame on a session whose
	// battery already died.
	ErrSessionExhausted = mac.ErrExhausted
	// ErrBadDevice reports a device whose capacity is not positive and
	// finite. The Pair methods and the gain matrices return it before
	// any battery is made, and hubs and fleets from their runs.
	ErrBadDevice = energy.ErrBadDevice
)

// Pair is the high-level API: two devices at a distance, ready to
// transfer data through the braided radio.
type Pair struct {
	// TX transmits to RX.
	TX, RX Device
	// Distance separates them.
	Distance Meter

	model *Model
	// braid holds the pair's braid configuration. Runs operate on a
	// per-call copy so concurrent transfers on one Pair never share
	// mutable engine state.
	braid *core.Braid
	// walk and sessionFaults configure packet-level sessions opened on
	// this pair.
	walk          mac.Walk
	sessionFaults faults.Injector
	// metrics is the recorder WithMetrics attached (nil = process
	// default), carried into sessions opened on this pair.
	metrics *obs.Recorder
}

// Option customizes a Pair.
type Option func(*Pair)

// WithModel substitutes a custom channel model (e.g. with a fade margin
// or ARQ loss accounting).
func WithModel(m *Model) Option {
	return func(p *Pair) { p.model = m }
}

// WithoutSwitchOverhead disables Table 5 mode-switch energy accounting.
func WithoutSwitchOverhead() Option {
	return func(p *Pair) { p.braid.IncludeSwitchOverhead = false }
}

// WithWalk drives packet-level sessions opened on this pair with a
// mobility trace: the session re-reads the walk at probe/recompute
// boundaries so BER and FER track live distance instead of the initial
// separation.
func WithWalk(w Walk) Option {
	return func(p *Pair) { p.walk = w }
}

// WithSessionFaults injects a deterministic fault chain (burst loss,
// jamming, dropouts, brownouts, estimator corruption) into packet-level
// sessions opened on this pair. Injectors are stateful: use a fresh
// chain per pair.
func WithSessionFaults(inj FaultInjector) Option {
	return func(p *Pair) { p.sessionFaults = inj }
}

// NewPair creates a transfer pair. The zero configuration uses the
// calibrated free-space model with switch overheads on.
func NewPair(tx, rx Device, d Meter, opts ...Option) *Pair {
	model := phy.NewModel()
	p := &Pair{TX: tx, RX: rx, Distance: d, model: model, braid: core.NewBraid(model, d)}
	for _, o := range opts {
		o(p)
	}
	p.braid.Model = p.model
	p.braid.Distance = p.Distance
	return p
}

// Model returns the pair's channel model.
func (p *Pair) Model() *Model { return p.model }

// Regime reports which operating regime the pair sits in.
func (p *Pair) Regime() Regime { return p.model.Regime(p.Distance) }

// Links characterizes the modes available to the pair.
func (p *Pair) Links() []Link { return p.model.Characterize(p.Distance) }

// checkDevices returns an error wrapping ErrBadDevice when either
// endpoint's capacity is not positive and finite. Every Pair method that
// reads the capacities runs it first, or, for the gains, sim.RunPair
// does.
func (p *Pair) checkDevices() error {
	if err := energy.CheckDevice(p.TX); err != nil {
		return fmt.Errorf("braidio: transmitter: %w", err)
	}
	if err := energy.CheckDevice(p.RX); err != nil {
		return fmt.Errorf("braidio: receiver: %w", err)
	}
	return nil
}

// Plan returns the carrier-offload allocation for the pair's full
// batteries without running a transfer.
func (p *Pair) Plan() (*Allocation, error) {
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	return core.Optimize(p.Links(), p.TX.Capacity.Joules(), p.RX.Capacity.Joules())
}

// Transfer streams data from TX to RX, both starting with full
// batteries, until one dies. It returns the braid result. Transfers run
// on a copy of the pair's braid configuration, so concurrent calls on
// one Pair are safe.
func (p *Pair) Transfer() (*Result, error) {
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	br := *p.braid
	br.MaxBits = 0
	return br.RunFresh(p.TX.Capacity, p.RX.Capacity)
}

// TransferBits moves a bounded number of payload bits (or less, if a
// battery dies first) between full batteries. A budget that is not
// positive and finite bounds nothing, so it returns an error before any
// battery is made. Safe to call concurrently with other transfers on the
// same Pair.
func (p *Pair) TransferBits(bits float64) (*Result, error) {
	if !(bits > 0) || math.IsInf(bits, 1) {
		return nil, fmt.Errorf("braidio: bit budget %v is not positive and finite", bits)
	}
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	br := *p.braid
	br.MaxBits = bits
	return br.RunFresh(p.TX.Capacity, p.RX.Capacity)
}

// Resume continues a transfer over existing (partially drained)
// batteries, draining them further. Concurrent Resume calls must use
// distinct batteries — the batteries themselves are mutated.
func (p *Pair) Resume(txBatt, rxBatt *Battery) (*Result, error) {
	br := *p.braid
	br.MaxBits = 0
	return br.Run(txBatt, rxBatt)
}

// GainVsBluetooth runs the pair and reports the total-bits gain over the
// Bluetooth baseline — one cell of Fig. 15.
func (p *Pair) GainVsBluetooth() (float64, error) {
	r, err := sim.RunPair(p.model, p.Distance, p.TX, p.RX)
	if err != nil {
		return 0, err
	}
	return r.GainVsBluetooth(), nil
}

// GainVsBestMode runs the pair and reports the gain over the best single
// mode used exclusively — one cell of Fig. 16.
func (p *Pair) GainVsBestMode() (float64, error) {
	r, err := sim.RunPair(p.model, p.Distance, p.TX, p.RX)
	if err != nil {
		return 0, err
	}
	return r.GainVsBestMode(), nil
}

// NewSession opens a packet-level braided MAC session for the pair with
// fresh batteries: frame-by-frame transfer with probing, loss,
// retransmission, and fallback. The seed drives the stochastic channel;
// WithWalk and WithSessionFaults options on the pair carry over.
func (p *Pair) NewSession(seed uint64) (*Session, error) {
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	cfg := mac.DefaultConfig(p.model, p.Distance, seed)
	cfg.Walk = p.walk
	cfg.Faults = p.sessionFaults
	cfg.Obs = p.metrics
	return mac.NewSession(cfg, energy.NewBattery(p.TX.Capacity), energy.NewBattery(p.RX.Capacity))
}

// GainMatrix computes the Fig. 15 matrix — Braidio over Bluetooth for
// every transmitter/receiver combination of the given devices (the
// catalog, if nil) at the given distance.
func GainMatrix(d Meter, devices []Device) (*Matrix, error) {
	if devices == nil {
		devices = energy.Catalog
	}
	return sim.GainMatrixBluetooth(phy.NewModel(), d, devices)
}

// GainMatrixBestMode computes the Fig. 16 matrix — Braidio over the best
// of its own modes in isolation.
func GainMatrixBestMode(d Meter, devices []Device) (*Matrix, error) {
	if devices == nil {
		devices = energy.Catalog
	}
	return sim.GainMatrixBestMode(phy.NewModel(), d, devices)
}

// GainMatrixBidirectional computes the Fig. 17 matrix — role-swapping
// traffic with equal data both ways.
func GainMatrixBidirectional(d Meter, devices []Device) (*Matrix, error) {
	if devices == nil {
		devices = energy.Catalog
	}
	return sim.GainMatrixBidirectional(phy.NewModel(), d, devices)
}

// Hub types: the multi-device star network extension (one energy-rich
// hub serving several wearables over braided pairs).
type (
	// Hub is a star network of braided pairs sharing the hub's battery.
	Hub = hub.Hub
	// HubMember is one wearable served by a Hub.
	HubMember = hub.Member
	// HubResult is the outcome of a Hub run.
	HubResult = hub.Result
	// HubMemberResult is one member's share of a Hub run, including any
	// quarantine verdict.
	HubMemberResult = hub.MemberResult
)

// NewHub creates a star network centred on the given device using the
// calibrated channel model.
func NewHub(device Device) *Hub { return hub.New(device, nil) }

// Fleet-scale simulation: populations of independent hub stars run
// concurrently with per-shard deterministic random streams.
type (
	// Fleet is a population of independent hub stars simulated over one
	// worker pool; results are bit-identical at any worker count.
	Fleet = hub.Fleet
	// FleetResult aggregates a fleet run (per-shard results plus
	// population totals).
	FleetResult = hub.FleetResult
	// HubBuilder constructs one fleet shard's hub from the shard index
	// and the shard's private random stream.
	HubBuilder = hub.Builder
	// RNG is a deterministic random stream (xoshiro256**); fleet shard
	// builders draw every randomized member parameter from theirs.
	RNG = rng.Stream
)

// RunFleet simulates n independent hub shards built by build, each for
// the horizon split into rounds, over a GOMAXPROCS-bounded worker pool
// with per-shard substreams carved from seed.
func RunFleet(n int, seed uint64, build HubBuilder, horizon Second, rounds int) (*FleetResult, error) {
	f := &hub.Fleet{Shards: n, Seed: seed, Build: build}
	return f.Run(horizon, rounds)
}

// Duplex is the packet-level bidirectional session (two Sessions wired
// crosswise over shared batteries).
type Duplex = mac.Duplex

// NewDuplex opens a bidirectional packet-level session between the
// pair's devices with fresh batteries. A WithWalk option carries over to
// both directions; session faults do not (injectors are stateful and
// cannot be shared between the two directions' sessions).
func (p *Pair) NewDuplex(seed uint64) (*Duplex, error) {
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	cfg := mac.DefaultConfig(p.model, p.Distance, seed)
	cfg.Walk = p.walk
	cfg.Obs = p.metrics
	return mac.NewDuplex(cfg, energy.NewBattery(p.TX.Capacity), energy.NewBattery(p.RX.Capacity))
}

// PlanQoS returns the carrier-offload allocation with a minimum
// delivered-throughput floor (the QoS extension of Eq. 1): a real-time
// source that needs at least minRate cannot absorb slow backscatter
// slots, so the braid sheds them at the price of power proportionality.
func (p *Pair) PlanQoS(minRate BitRate) (*Allocation, error) {
	if err := p.checkDevices(); err != nil {
		return nil, err
	}
	return core.OptimizeQoS(p.Links(), p.TX.Capacity.Joules(), p.RX.Capacity.Joules(), minRate)
}

// Observability: the zero-allocation metrics and tracing layer
// (internal/obs) re-exported. Attach a MetricsRecorder to a Pair, Hub,
// or Fleet (or install a process default with SetDefaultMetrics) and
// read a MetricsSnapshot after the run; attaching a recorder never
// changes any result, and Canonical snapshots are bit-identical at any
// worker count.
type (
	// MetricsRecorder is the concurrent-safe metric set engines report
	// into: counters, fixed-point float series, and histograms.
	MetricsRecorder = obs.Recorder
	// MetricsSnapshot is a recorder's frozen state, with table / JSON /
	// Prometheus writers and derived accessors (mode fractions,
	// energy per bit).
	MetricsSnapshot = obs.Snapshot
	// MetricsTracer is a bounded ring buffer of engine events
	// (mode switches, fallbacks, replans, quarantines, hub deaths).
	MetricsTracer = obs.Tracer
	// TraceEvent is one traced engine event.
	TraceEvent = obs.Event
)

// NewMetricsRecorder returns a ready MetricsRecorder with the standard
// bucket layouts.
func NewMetricsRecorder() *MetricsRecorder { return obs.NewRecorder() }

// NewMetricsTracer returns a MetricsTracer retaining the last capacity
// events (a default capacity when non-positive). Assign it to a
// recorder's Tracer field to capture event timelines.
func NewMetricsTracer(capacity int) *MetricsTracer { return obs.NewTracer(capacity) }

// SetDefaultMetrics installs (or, with nil, removes) the process-global
// default recorder: engines without an explicitly attached recorder
// report there. WithMetrics takes precedence per pair.
func SetDefaultMetrics(r *MetricsRecorder) { obs.SetDefault(r) }

// WithMetrics attaches a metrics recorder to the pair: transfers and
// sessions opened on it report run totals, mode occupancy, solver and
// fallback activity into r. Results are unchanged; one recorder may be
// shared by many pairs.
func WithMetrics(r *MetricsRecorder) Option {
	return func(p *Pair) {
		p.braid.Obs = r
		p.metrics = r
	}
}
