package net

import (
	"fmt"
	"testing"
)

// BenchmarkNetFleetHour plans and commits a one-hour horizon (12 rounds)
// at serial and parallel worker counts: over the dense golden grid, both
// network couplings active, and (relay/...) over the sparse golden line,
// whose stranded member relays every round over a trunk row and a
// first-hop row that phase 0 keeps. Network state is rebuilt once per
// benchmark; each iteration is a full Run, so the number reported is
// the steady-state cost of an hour of fleet scheduling.
func BenchmarkNetFleetHour(b *testing.B) {
	hour := func(topo *Topology, workers int) func(*testing.B) {
		return func(b *testing.B) {
			n, err := New(topo, Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := n.Run(3600, 12)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalBits() <= 0 {
					b.Fatal("benchmark run delivered nothing")
				}
			}
		}
	}
	dense, sparse := denseGrid(b), sparseLine(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), hour(dense, workers))
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("relay/workers=%d", workers), hour(sparse, workers))
	}
}

// BenchmarkNetPlanRound isolates the planning half: one round's census,
// donor election, interference aggregation, link characterization, and
// per-slot appraisal, without the commit.
func BenchmarkNetPlanRound(b *testing.B) {
	n, err := New(denseGrid(b), Config{Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.PlanRound(300); err != nil {
			b.Fatal(err)
		}
	}
}
