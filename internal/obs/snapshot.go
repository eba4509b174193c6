package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"braidio/internal/ascii"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
)

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts is one longer, the
	// final entry being the overflow bucket.
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket observation counts aligned with Bounds,
	// plus the overflow bucket.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the fixed-point sum of observed values, dequantized.
	Sum float64 `json:"sum"`
}

// snapshot freezes a histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// CacheSnapshot is the process-global PHY link cache's counters at
// snapshot time. Hit/miss splits depend on concurrent planner timing
// (two planners can both miss a cold key), so this section is zeroed by
// Canonical.
type CacheSnapshot struct {
	// Hits and Misses count lookups served from / added to the cache.
	Hits, Misses uint64
	// Evictions counts resident entries dropped by full shards.
	Evictions uint64
	// Entries is the current resident entry count.
	Entries int
	// Shards is the number of lock stripes.
	Shards int
}

// Snapshot is a Recorder's frozen state: every counter, the dequantized
// float series, both histograms, and the link cache's process counters.
// Snapshots are plain data — compare them, serialize them, diff them.
type Snapshot struct {
	// BraidRuns..HubDeaths mirror the Recorder counters; see Recorder
	// for per-field semantics.
	BraidRuns, Epochs, LPSolves, Switches, BatchRounds                            uint64
	FramesDelivered, FramesLost, Retransmissions, Probes, Recomputes              uint64
	Fallbacks, FallbacksSuppressed, BackoffWaits, LinkDeaths                      uint64
	HubRounds, MemberRounds, Replans, Quarantines, OutageRounds, HubDeaths        uint64
	NetRounds, RelayRounds, CarrierShares, InterferedRounds                       uint64
	ServeRegisters, ServeUpdates, ServeSheds, ServeEpochs, ServePlans, ServeClean uint64
	ServeSnapshots, ServeRotations, ServeRecoveries, ServeTornRecords             uint64
	ServeJournalErrors                                                            uint64
	// ServeDirty counts members marked dirty, indexed by reason
	// (DirtyRegister..DirtyRestore).
	ServeDirty [NumDirtyReasons]uint64
	// ServeLinkRows counts re-planned members' link rows by source
	// (LinkRowsCharacterized, LinkRowsRebuilt).
	ServeLinkRows [NumLinkRowSources]uint64

	// Bits, AirTime, DrainTX, DrainRX, SwitchEnergy are the dequantized
	// float totals; RelayBits is the 2-hop-relayed subset of Bits.
	Bits, AirTime, DrainTX, DrainRX, SwitchEnergy, RelayBits float64
	// RawBits is the fixed-point Bits accumulator verbatim — exactly
	// reproducible, so golden tests pin this rather than the float.
	RawBits uint64
	// ModeBits and ModeTime attribute bits and air time to modes,
	// indexed by phy.Mode.
	ModeBits, ModeTime [NumModes]float64

	// EnergyPerBit, LPSolveLatency, ServeApplyLatency, and
	// ServePlanLatency are the frozen histograms.
	EnergyPerBit, LPSolveLatency, ServeApplyLatency, ServePlanLatency HistogramSnapshot
	// Cache is the process-global link-cache state.
	Cache CacheSnapshot
	// TraceTotal and TraceRetained describe the attached tracer (zero
	// when none).
	TraceTotal    uint64
	TraceRetained int
}

// Snapshot freezes the recorder's current state, including the
// process-global link-cache counters. Safe to call while engines are
// still recording (each field is read atomically; cross-field skew is
// possible mid-run, impossible once runs have completed).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		BraidRuns:           r.BraidRuns.Load(),
		Epochs:              r.Epochs.Load(),
		LPSolves:            r.LPSolves.Load(),
		BatchRounds:         r.BatchRounds.Load(),
		Switches:            r.Switches.Load(),
		FramesDelivered:     r.FramesDelivered.Load(),
		FramesLost:          r.FramesLost.Load(),
		Retransmissions:     r.Retransmissions.Load(),
		Probes:              r.Probes.Load(),
		Recomputes:          r.Recomputes.Load(),
		Fallbacks:           r.Fallbacks.Load(),
		FallbacksSuppressed: r.FallbacksSuppressed.Load(),
		BackoffWaits:        r.BackoffWaits.Load(),
		LinkDeaths:          r.LinkDeaths.Load(),
		HubRounds:           r.HubRounds.Load(),
		MemberRounds:        r.MemberRounds.Load(),
		Replans:             r.Replans.Load(),
		Quarantines:         r.Quarantines.Load(),
		OutageRounds:        r.OutageRounds.Load(),
		HubDeaths:           r.HubDeaths.Load(),
		NetRounds:           r.NetRounds.Load(),
		RelayRounds:         r.RelayRounds.Load(),
		CarrierShares:       r.CarrierShares.Load(),
		InterferedRounds:    r.InterferedRounds.Load(),
		RelayBits:           r.RelayBits.Load(),
		ServeRegisters:      r.ServeRegisters.Load(),
		ServeUpdates:        r.ServeUpdates.Load(),
		ServeSheds:          r.ServeSheds.Load(),
		ServeEpochs:         r.ServeEpochs.Load(),
		ServePlans:          r.ServePlans.Load(),
		ServeClean:          r.ServeClean.Load(),
		ServeSnapshots:      r.ServeSnapshots.Load(),
		ServeRotations:      r.ServeRotations.Load(),
		ServeRecoveries:     r.ServeRecoveries.Load(),
		ServeTornRecords:    r.ServeTornRecords.Load(),
		ServeJournalErrors:  r.ServeJournalErrors.Load(),
		Bits:                r.Bits.Load(),
		RawBits:             r.Bits.raw(),
		AirTime:             r.AirTime.Load(),
		DrainTX:             r.DrainTX.Load(),
		DrainRX:             r.DrainRX.Load(),
		SwitchEnergy:        r.SwitchEnergy.Load(),
		EnergyPerBit:        r.EnergyPerBit.snapshot(),
		LPSolveLatency:      r.LPSolveLatency.snapshot(),
		ServeApplyLatency:   r.ServeApplyLatency.snapshot(),
		ServePlanLatency:    r.ServePlanLatency.snapshot(),
	}
	for i := range s.ModeBits {
		s.ModeBits[i] = r.ModeBits[i].Load()
		s.ModeTime[i] = r.ModeTime[i].Load()
	}
	for i := range s.ServeDirty {
		s.ServeDirty[i] = r.ServeDirty[i].Load()
	}
	for i := range s.ServeLinkRows {
		s.ServeLinkRows[i] = r.ServeLinkRows[i].Load()
	}
	cs := linkcache.Snapshot()
	s.Cache = CacheSnapshot{
		Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
		Entries: cs.Entries, Shards: cs.Shards,
	}
	if r.Tracer != nil {
		s.TraceTotal = r.Tracer.Total()
		s.TraceRetained = len(r.Tracer.Events())
	}
	return s
}

// Canonical returns the snapshot with the non-deterministic sections
// zeroed: wall-clock latency buckets (machine-speed dependent; the
// observation *count* is kept, since it counts solves or epochs) and the
// process-global cache counters (racing planners can split a miss).
// Canonical snapshots are bit-identical at any worker count — the
// determinism contract the golden tests pin.
func (s Snapshot) Canonical() Snapshot {
	for _, h := range []*HistogramSnapshot{&s.LPSolveLatency, &s.ServeApplyLatency, &s.ServePlanLatency} {
		h.Bounds, h.Counts, h.Sum = nil, nil, 0
	}
	s.Cache = CacheSnapshot{}
	s.TraceTotal, s.TraceRetained = 0, 0
	return s
}

// ModeBitFraction returns the fraction of delivered bits carried by a
// mode (0 when nothing was delivered).
func (s *Snapshot) ModeBitFraction(m phy.Mode) float64 {
	if s.Bits <= 0 {
		return 0
	}
	return s.ModeBits[m] / s.Bits
}

// ModeTimeFraction returns the fraction of air time spent in a mode.
func (s *Snapshot) ModeTimeFraction(m phy.Mode) float64 {
	if s.AirTime <= 0 {
		return 0
	}
	return s.ModeTime[m] / s.AirTime
}

// AvgEnergyPerBit returns total energy at both endpoints per delivered
// bit in J/bit (0 when nothing was delivered).
func (s *Snapshot) AvgEnergyPerBit() float64 {
	if s.Bits <= 0 {
		return 0
	}
	return (s.DrainTX + s.DrainRX) / s.Bits
}

// DrainRatio returns the TX:RX energy-consumption ratio — the quantity
// Eq. (1) steers toward the battery ratio E1:E2 (+Inf when the RX side
// spent nothing).
func (s *Snapshot) DrainRatio() float64 {
	if s.DrainRX <= 0 {
		return math.Inf(1)
	}
	return s.DrainTX / s.DrainRX
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as human-readable ASCII tables: the
// mode occupancy split, the energy accounting, the solver and engine
// counters, and the resilience events.
func (s *Snapshot) WriteTable(w io.Writer) error {
	fmt.Fprintln(w, "== Mode occupancy ==")
	rows := [][]string{}
	for _, m := range phy.Modes {
		rows = append(rows, []string{
			m.String(),
			fmt.Sprintf("%.4g", s.ModeBits[m]),
			fmt.Sprintf("%5.1f%%", 100*s.ModeBitFraction(m)),
			fmt.Sprintf("%.4g", s.ModeTime[m]),
			fmt.Sprintf("%5.1f%%", 100*s.ModeTimeFraction(m)),
		})
	}
	if err := ascii.Table(w, []string{"Mode", "Bits", "Bit frac", "Time s", "Time frac"}, rows); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== Energy ==")
	rows = [][]string{
		{"delivered bits", fmt.Sprintf("%.6g", s.Bits)},
		{"air time (s)", fmt.Sprintf("%.6g", s.AirTime)},
		{"TX drain (J)", fmt.Sprintf("%.6g", s.DrainTX)},
		{"RX drain (J)", fmt.Sprintf("%.6g", s.DrainRX)},
		{"TX:RX drain ratio", fmt.Sprintf("%.4g", s.DrainRatio())},
		{"switch overhead (J)", fmt.Sprintf("%.6g", s.SwitchEnergy)},
		{"energy/bit (nJ)", fmt.Sprintf("%.4g", 1e9*s.AvgEnergyPerBit())},
	}
	if err := ascii.Table(w, []string{"Quantity", "Value"}, rows); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== Engine ==")
	rows = [][]string{
		{"braid runs", fmt.Sprint(s.BraidRuns)},
		{"epochs", fmt.Sprint(s.Epochs)},
		{"LP solves", fmt.Sprint(s.LPSolves)},
		{"batch rounds", fmt.Sprint(s.BatchRounds)},
		{"mode switches", fmt.Sprint(s.Switches)},
		{"hub rounds", fmt.Sprint(s.HubRounds)},
		{"member rounds", fmt.Sprint(s.MemberRounds)},
		{"net rounds", fmt.Sprint(s.NetRounds)},
		{"relay rounds", fmt.Sprint(s.RelayRounds)},
		{"carrier shares", fmt.Sprint(s.CarrierShares)},
		{"interfered rounds", fmt.Sprint(s.InterferedRounds)},
		{"relay bits", fmt.Sprintf("%.4g", s.RelayBits)},
		{"cache hits/misses", fmt.Sprintf("%d/%d", s.Cache.Hits, s.Cache.Misses)},
		{"cache evictions", fmt.Sprint(s.Cache.Evictions)},
	}
	if err := ascii.Table(w, []string{"Counter", "Value"}, rows); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== Serve ==")
	rows = [][]string{
		{"registers", fmt.Sprint(s.ServeRegisters)},
		{"updates", fmt.Sprint(s.ServeUpdates)},
		{"sheds", fmt.Sprint(s.ServeSheds)},
		{"epochs", fmt.Sprint(s.ServeEpochs)},
		{"plans solved", fmt.Sprint(s.ServePlans)},
		{"clean skips", fmt.Sprint(s.ServeClean)},
		{"dirty register/ratio/distance/hub/restore", fmt.Sprintf("%d/%d/%d/%d/%d",
			s.ServeDirty[DirtyRegister], s.ServeDirty[DirtyRatio], s.ServeDirty[DirtyDistance],
			s.ServeDirty[DirtyHub], s.ServeDirty[DirtyRestore])},
		{"link rows characterized/rebuilt", fmt.Sprintf("%d/%d",
			s.ServeLinkRows[LinkRowsCharacterized], s.ServeLinkRows[LinkRowsRebuilt])},
		{"snapshots", fmt.Sprint(s.ServeSnapshots)},
		{"segment rotations", fmt.Sprint(s.ServeRotations)},
		{"recoveries", fmt.Sprint(s.ServeRecoveries)},
		{"torn records", fmt.Sprint(s.ServeTornRecords)},
		{"journal errors", fmt.Sprint(s.ServeJournalErrors)},
		{"plan mean (ms)", meanMillis(&s.ServePlanLatency)},
	}
	if err := ascii.Table(w, []string{"Counter", "Value"}, rows); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== Resilience ==")
	rows = [][]string{
		{"fallbacks", fmt.Sprint(s.Fallbacks)},
		{"fallbacks suppressed", fmt.Sprint(s.FallbacksSuppressed)},
		{"backoff waits", fmt.Sprint(s.BackoffWaits)},
		{"link deaths", fmt.Sprint(s.LinkDeaths)},
		{"replans", fmt.Sprint(s.Replans)},
		{"quarantines", fmt.Sprint(s.Quarantines)},
		{"outage rounds", fmt.Sprint(s.OutageRounds)},
		{"hub deaths", fmt.Sprint(s.HubDeaths)},
	}
	return ascii.Table(w, []string{"Event", "Count"}, rows)
}

// meanMillis renders a nanosecond latency histogram's mean in
// milliseconds, or "-" when it holds no observation.
func meanMillis(h *HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", h.Sum/float64(h.Count)/1e6)
}

// promLabel maps a mode index to its Prometheus label value.
func promLabel(m phy.Mode) string { return m.String() }

// writeHist writes one histogram in Prometheus exposition format.
func writeHist(w io.Writer, name, help string, h *HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as *_total, float series as gauges
// in base units, and both histograms with cumulative buckets.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	counter("braidio_braid_runs_total", "Completed braid engine executions.", s.BraidRuns)
	counter("braidio_epochs_total", "Allocation epochs.", s.Epochs)
	counter("braidio_lp_solves_total", "Offload optimizer solves.", s.LPSolves)
	counter("braidio_batch_rounds_total", "Planning rounds: one per net or hub round, and one per serve epoch that planned members.", s.BatchRounds)
	counter("braidio_mode_switches_total", "Radio mode transitions.", s.Switches)
	counter("braidio_frames_delivered_total", "MAC data frames delivered.", s.FramesDelivered)
	counter("braidio_frames_lost_total", "MAC data frames lost after retries.", s.FramesLost)
	counter("braidio_retransmissions_total", "MAC retransmission attempts.", s.Retransmissions)
	counter("braidio_probes_total", "MAC probe frames.", s.Probes)
	counter("braidio_recomputes_total", "MAC allocation recomputations.", s.Recomputes)
	counter("braidio_fallbacks_total", "Executed active-mode fallbacks.", s.Fallbacks)
	counter("braidio_fallbacks_suppressed_total", "Fallback triggers absorbed by hysteresis.", s.FallbacksSuppressed)
	counter("braidio_backoff_waits_total", "Recompute boundaries spent in re-entry backoff.", s.BackoffWaits)
	counter("braidio_link_deaths_total", "Links declared dead after bounded recovery.", s.LinkDeaths)
	counter("braidio_hub_rounds_total", "Hub scheduling rounds.", s.HubRounds)
	counter("braidio_member_rounds_total", "Committed member-rounds.", s.MemberRounds)
	counter("braidio_replans_total", "Commit-time re-solves after snapshot shortfall.", s.Replans)
	counter("braidio_quarantines_total", "Members quarantined.", s.Quarantines)
	counter("braidio_outage_rounds_total", "Member-rounds lost to injected outages.", s.OutageRounds)
	counter("braidio_hub_deaths_total", "Hub batteries exhausted mid-run.", s.HubDeaths)
	counter("braidio_net_rounds_total", "Scheduling rounds of multi-hub networks.", s.NetRounds)
	counter("braidio_relay_rounds_total", "Member-rounds committed through a 2-hop relay.", s.RelayRounds)
	counter("braidio_carrier_shares_total", "Member-rounds committed on a borrowed carrier.", s.CarrierShares)
	counter("braidio_interfered_rounds_total", "Member-rounds planned under co-channel interference.", s.InterferedRounds)
	counter("braidio_serve_registers_total", "Member registrations applied by serve epochs.", s.ServeRegisters)
	counter("braidio_serve_updates_total", "Member updates applied by serve epochs (hub budget changes not counted).", s.ServeUpdates)
	counter("braidio_serve_sheds_total", "Operations refused serve admission: queue full, or journal broken under fail-stop.", s.ServeSheds)
	counter("braidio_serve_epochs_total", "Serving epochs executed.", s.ServeEpochs)
	counter("braidio_serve_plans_total", "Member plans solved (dirty members only).", s.ServePlans)
	counter("braidio_serve_clean_total", "Member-epochs skipped as within-tolerance.", s.ServeClean)
	counter("braidio_serve_snapshots_total", "Journal snapshot records written.", s.ServeSnapshots)
	counter("braidio_serve_rotations_total", "Journal segment rotations.", s.ServeRotations)
	counter("braidio_serve_recoveries_total", "Daemon startups recovered from a journal directory.", s.ServeRecoveries)
	counter("braidio_serve_torn_records_total", "Torn trailing journal records truncated by recovery.", s.ServeTornRecords)
	counter("braidio_serve_journal_errors_total", "Journal write failures and records dropped while broken.", s.ServeJournalErrors)
	fmt.Fprintf(w, "# HELP braidio_serve_dirty_total Members marked dirty for re-planning, by reason.\n# TYPE braidio_serve_dirty_total counter\n")
	for i, label := range dirtyReasonLabels {
		fmt.Fprintf(w, "braidio_serve_dirty_total{reason=%q} %d\n", label, s.ServeDirty[i])
	}
	fmt.Fprintf(w, "# HELP braidio_serve_link_rows_total Link rows of re-planned members, by source: characterized by the PHY model, or rebuilt from the last plan's rate code at an unchanged distance.\n# TYPE braidio_serve_link_rows_total counter\n")
	for i, label := range linkRowSourceLabels {
		fmt.Fprintf(w, "braidio_serve_link_rows_total{source=%q} %d\n", label, s.ServeLinkRows[i])
	}
	counter("braidio_linkcache_hits_total", "PHY link cache hits.", s.Cache.Hits)
	counter("braidio_linkcache_misses_total", "PHY link cache misses.", s.Cache.Misses)
	counter("braidio_linkcache_evictions_total", "PHY link cache evictions.", s.Cache.Evictions)
	gauge("braidio_linkcache_entries", "Resident PHY link cache entries.", float64(s.Cache.Entries))
	gauge("braidio_bits_delivered", "Delivered payload bits.", s.Bits)
	gauge("braidio_air_time_seconds", "Cumulative on-air time.", s.AirTime)
	gauge("braidio_drain_tx_joules", "Energy drawn at the data transmitter.", s.DrainTX)
	gauge("braidio_drain_rx_joules", "Energy drawn at the data receiver.", s.DrainRX)
	gauge("braidio_switch_energy_joules", "Mode-switch overhead energy.", s.SwitchEnergy)
	gauge("braidio_relay_bits", "Payload bits delivered over 2-hop relays.", s.RelayBits)
	fmt.Fprintf(w, "# HELP braidio_mode_bits Delivered bits per mode.\n# TYPE braidio_mode_bits gauge\n")
	for _, m := range phy.Modes {
		fmt.Fprintf(w, "braidio_mode_bits{mode=%q} %s\n", promLabel(m),
			strconv.FormatFloat(s.ModeBits[m], 'g', -1, 64))
	}
	fmt.Fprintf(w, "# HELP braidio_mode_time_seconds Air time per mode.\n# TYPE braidio_mode_time_seconds gauge\n")
	for _, m := range phy.Modes {
		fmt.Fprintf(w, "braidio_mode_time_seconds{mode=%q} %s\n", promLabel(m),
			strconv.FormatFloat(s.ModeTime[m], 'g', -1, 64))
	}
	writeHist(w, "braidio_energy_per_bit_joules", "Per-run delivered energy per bit.", &s.EnergyPerBit)
	writeHist(w, "braidio_lp_solve_latency_nanoseconds", "Offload solve wall-clock latency.", &s.LPSolveLatency)
	writeHist(w, "braidio_serve_apply_latency_nanoseconds", "Serve epoch apply-phase wall-clock latency.", &s.ServeApplyLatency)
	writeHist(w, "braidio_serve_plan_latency_nanoseconds", "Serve epoch plan-phase wall-clock latency.", &s.ServePlanLatency)
	return nil
}
