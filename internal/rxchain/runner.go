package rxchain

import (
	"errors"
	"math"
	"sync"

	"braidio/internal/par"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Runner runs line-coded waveform simulations with reusable scratch
// buffers and an in-place reseeded rng stream, so steady-state RunCoded
// calls allocate zero bytes. A Runner is not safe for concurrent use;
// RunCodedAll hands one Runner per worker out of a pool.
type Runner struct {
	stream rng.Stream
	// payload holds generated random data bits for coded runs.
	payload []byte
	// symbols holds the line-coded channel symbols.
	symbols []byte
	// decided holds the comparator's per-symbol decisions.
	decided []byte
	// decoded holds the tolerant-decoded bits.
	decoded []byte
}

// NewRunner returns an empty Runner; buffers grow on first use and are
// reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// growBytes returns buf resized to n, reusing its storage when the
// capacity suffices.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// runnerPool recycles Runners (and their grown scratch buffers) across
// RunCodedAll calls.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// RunAll runs each config through the chain on a GOMAXPROCS-bounded
// worker pool (workers <= 0 selects GOMAXPROCS) and returns the results
// in config order. Every config carries its own seed, so each cell's
// computation is self-contained and the sweep is bit-identical to
// running each config's chain alone, start to finish, at any worker
// count. The runs advance together, driftBlockBits bits per fan-out, so
// that runs sharing a drift waveform read each block of its sines from
// one driftBlock filled before the fan-out. Errors are joined in config
// order, and nothing runs unless every config is valid.
func RunAll(cfgs []Config, n int, workers int) ([]Result, error) {
	chains := make([]chain, len(cfgs))
	errs := make([]error, len(cfgs))
	longest := 0
	for i, cfg := range cfgs {
		errs[i] = chains[i].start(cfg, n)
		longest = max(longest, chains[i].total)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	drift, blocks := sharedDrift(chains)
	for from := 0; from < longest; from += driftBlockBits {
		to := from + driftBlockBits
		for _, b := range blocks {
			b.fill(from, to)
		}
		par.For(workers, len(chains), func(i int) {
			var sines []float64
			if drift[i] != nil {
				sines = drift[i].sines
			}
			chains[i].advance(min(to, chains[i].total), sines)
		})
	}
	out := make([]Result, len(chains))
	for i := range chains {
		out[i] = chains[i].finish()
	}
	return out, nil
}

// driftBlockBits is how many bits of a shared drift waveform one
// driftBlock holds: at 8 samples a bit, 256 KiB of sines, however long
// the runs are.
const driftBlockBits = 4096

// driftKey is what fixes a run's drift sines sin(t/Tc + φ): its sample
// times (rate, oversampling and bit count) and the waveform's coherence
// time and phase.
type driftKey struct {
	rate          units.BitRate
	samplesPerBit int
	bits          int
	coherence     units.Second
	phase         float64
}

// sharedDrift gives every key that two or more chains share one
// driftBlock. It returns each chain's block, nil for a chain whose key
// is its own (it calls Sample, as a chain run alone does) or whose leak
// is static (CoherenceTime ≤ 0, where Sample takes no sine), and the
// distinct blocks.
func sharedDrift(chains []chain) (drift, blocks []*driftBlock) {
	keys := make([]driftKey, len(chains))
	count := make(map[driftKey]int, len(chains))
	for i := range chains {
		c := &chains[i]
		si := c.cfg.SelfInterference
		keys[i] = driftKey{c.cfg.Rate, c.cfg.SamplesPerBit, c.total, si.CoherenceTime, si.PhaseOffset}
		if si.CoherenceTime > 0 {
			count[keys[i]]++
		}
	}
	byKey := make(map[driftKey]*driftBlock)
	drift = make([]*driftBlock, len(chains))
	for i, k := range keys {
		if count[k] < 2 {
			continue
		}
		if byKey[k] == nil {
			c := &chains[i]
			byKey[k] = &driftBlock{chain: c, sines: make([]float64, 0, min(c.total, driftBlockBits)*c.cfg.SamplesPerBit)}
			blocks = append(blocks, byKey[k])
		}
		drift[i] = byKey[k]
	}
	return drift, blocks
}

// driftBlock holds the drift sines of one block of bits of a waveform
// several runs share; chain is any one of those runs.
type driftBlock struct {
	chain *chain
	sines []float64
}

// fill computes the sines of bits from up to to (or the runs' end), at
// the runs' own sample times, so that Level·(1 + DriftFraction·sines[k])
// is SelfInterference.Sample at the block's sample k, operation for
// operation, for any Level and DriftFraction.
func (b *driftBlock) fill(from, to int) {
	c := b.chain
	si, spb := c.cfg.SelfInterference, c.cfg.SamplesPerBit
	to = min(to, c.total)
	b.sines = b.sines[:0]
	for i := from; i < to; i++ {
		for s := 0; s < spb; s++ {
			t := sampleTime(i, s, spb, c.dt)
			b.sines = append(b.sines, math.Sin(float64(t)/float64(si.CoherenceTime)+si.PhaseOffset))
		}
	}
}

// RunCodedAll is RunAll for line-coded configs: each config runs through
// RunCoded with the shared read-only data (or its own seed-derived
// payload when data is nil), in parallel, with results in config order.
func RunCodedAll(cfgs []CodedConfig, data []byte, n int, workers int) ([]Result, error) {
	out := make([]Result, len(cfgs))
	err := par.ForErr(workers, len(cfgs), func(i int) error {
		ru := runnerPool.Get().(*Runner)
		defer runnerPool.Put(ru)
		return ru.RunCoded(cfgs[i], data, n, &out[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
