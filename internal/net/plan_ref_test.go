package net

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"braidio/internal/units"
)

// Plan validates the topology and appraises one round of length slice
// against fresh batteries: New, then PlanRound. The fuzz, property and
// relay tests drive the planner through it.
func Plan(t *Topology, cfg Config, slice units.Second) (*RoundPlan, error) {
	n, err := New(t, cfg)
	if err != nil {
		return nil, err
	}
	return n.PlanRound(slice)
}

// Digest is an order-sensitive FNV-1a fingerprint of a round plan, the
// way Result.Digest fingerprints a run; the goldens pin it.
func (p *RoundPlan) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	for _, e := range p.Emitting {
		if e {
			w(1)
		} else {
			w(0)
		}
	}
	for i := range p.Members {
		mp := &p.Members[i]
		w(uint64(mp.Hub))
		w(uint64(mp.Member))
		w(uint64(mp.Op))
		w(uint64(int64(mp.Donor)))
		w(uint64(int64(mp.Via)))
		f(mp.InterferenceMW)
		f(float64(mp.DirectTX))
		f(float64(mp.RelayTX))
		f(mp.Bits)
	}
	return h.Sum64()
}
