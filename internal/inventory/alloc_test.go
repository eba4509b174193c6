//go:build !race

package inventory

import (
	"testing"

	"braidio/internal/units"
)

// TestRunAllocsIndependentOfFrames gates the slot counting: a round
// allocates its stream, its result, one slot-draw slice and one count
// slice per frame size it grows to (Q takes at most 16 values), however
// many frames it opens. (Skipped under the race detector, which
// instruments allocations.)
func TestRunAllocsIndependentOfFrames(t *testing.T) {
	const tags = 1000
	cfg := DefaultConfig(units.Rate100k, 1)
	res, err := Run(cfg, tags)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Run(cfg, tags); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d tags, %d slots: %v allocations per round", tags, res.Slots, avg)
	const bound = 3 + 16
	if avg > bound {
		t.Errorf("Run(%d tags, %d slots) allocates %v times, want at most %d", tags, res.Slots, avg, bound)
	}
}
