package linkcache

import (
	"math"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// viewDists spans the near field, the backscatter edge and two
// active-only distances, so with the interference levels below the grid
// sees full, partial and empty rows.
var viewDists = []units.Meter{0.3, 1.5, 6, 300}

// viewMWs are the interference levels the View is checked at: none, a
// 50 km carrier faded the way the network scheduler derates it, and two
// levels loud enough to close modes.
func viewMWs(m *phy.Model) []float64 {
	far := m.OneWay.Received(phy.CarrierPower, 50000).Sub(m.FadeMargin).Watts().Milliwatts()
	return []float64{0, far, 1e-6, 1e-3}
}

// sameLinks fails unless got and want agree field for field, bit for
// bit.
func sameLinks(t *testing.T, what string, got, want []phy.ModeLink) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d links, want %d", what, len(got), len(want))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for i := range want {
		g, w := got[i], want[i]
		if g.Mode != w.Mode || bits(float64(g.Rate)) != bits(float64(w.Rate)) ||
			bits(g.BER) != bits(w.BER) || bits(float64(g.Good)) != bits(float64(w.Good)) ||
			bits(float64(g.T)) != bits(float64(w.T)) || bits(float64(g.R)) != bits(float64(w.R)) {
			t.Fatalf("%s: link %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestViewCharacterizeAtMatchesRaisedModel: every (distance,
// interference) row equals CharacterizeInto on a model copy whose
// Interference is raised by mw — the private link build the network
// scheduler would otherwise run — with the cache on and off, through
// Read and through CharacterizeAt cold and warm.
func TestViewCharacterizeAtMatchesRaisedModel(t *testing.T) {
	t.Cleanup(func() { SetEnabled(true) })
	m := phy.NewModel()
	for _, on := range []bool{true, false} {
		resetAll()
		SetEnabled(on)
		v := NewView(m)
		for _, d := range viewDists {
			for _, mw := range viewMWs(m) {
				raised := *m
				raised.Interference += mw
				want := raised.CharacterizeInto(nil, d)
				sameLinks(t, "read", v.Read(d, mw), want)
				for _, pass := range []string{"cold", "warm"} {
					sameLinks(t, pass, v.CharacterizeAt(d, mw), want)
				}
			}
		}
	}
}

// TestViewZeroInterferenceIsCanonical: with no added interference the
// View serves the global cache's canonical slice, so the view and the
// global table hold one row per key between them.
func TestViewZeroInterferenceIsCanonical(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	v := NewView(m)
	for _, d := range []units.Meter{0.3, 1.5} {
		at, plain, global := v.CharacterizeAt(d, 0), v.Characterize(d), Characterize(m, d)
		if len(at) == 0 {
			t.Fatalf("d=%v: empty row; pick a distance in range", float64(d))
		}
		if &at[0] != &plain[0] || &at[0] != &global[0] {
			t.Errorf("d=%v: CharacterizeAt(d, 0), Characterize(d) and the global Characterize return different slices", float64(d))
		}
	}
}

// TestViewReadStoresNothing: Read returns the global cache's canonical
// slice for the raised model and leaves the view's table as it was.
func TestViewReadStoresNothing(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	v := NewView(m)
	v.CharacterizeAt(0.3, 0)
	for _, d := range []units.Meter{0.3, 1.5} {
		for _, mw := range viewMWs(m)[:2] {
			raised := *m
			raised.Interference += mw
			got, want := v.Read(d, mw), Characterize(&raised, d)
			if len(want) == 0 {
				t.Fatalf("d=%v: empty row; pick a distance in range", float64(d))
			}
			if &got[0] != &want[0] {
				t.Errorf("d=%v mw=%v: Read and the global Characterize return different slices", float64(d), mw)
			}
		}
	}
	if n := len(v.links); n != 1 {
		t.Errorf("view holds %d rows after Read, want the 1 CharacterizeAt stored", n)
	}
}

// TestViewKeysInterference: two interference levels at one distance are
// two rows, each resolved once through the global cache.
func TestViewKeysInterference(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	v := NewView(m)
	mws := viewMWs(m)
	for _, mw := range mws[1:3] {
		v.CharacterizeAt(1.5, mw)
		v.CharacterizeAt(1.5, mw)
	}
	if n := len(v.links); n != 2 {
		t.Errorf("view holds %d rows for two interference levels at one distance, want 2", n)
	}
	if s := Snapshot(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("global cache saw %d misses / %d hits, want 2/0 (repeats must hit the view)", s.Misses, s.Hits)
	}
}

// TestViewDisabledStoresNothing: with the cache off the View
// characterizes directly and neither its table nor the global one
// grows.
func TestViewDisabledStoresNothing(t *testing.T) {
	resetAll()
	SetEnabled(false)
	t.Cleanup(func() { SetEnabled(true) })
	m := phy.NewModel()
	v := NewView(m)
	for _, d := range viewDists {
		for _, mw := range viewMWs(m) {
			v.CharacterizeAt(d, mw)
		}
	}
	if n := len(v.links); n != 0 {
		t.Errorf("disabled view stored %d rows", n)
	}
	if s := Snapshot(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("disabled view touched the global cache: %+v", s)
	}
}

// TestViewBoundedUnderChurn: a walker under interference keys a fresh
// row every round; the table evicts instead of growing.
func TestViewBoundedUnderChurn(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	v := NewView(m)
	for i := 0; i < maxViewEntries+100; i++ {
		v.CharacterizeAt(units.Meter(0.1+float64(i%64)*1e-2), float64(1+i/64)*1e-12)
	}
	if n := len(v.links); n > maxViewEntries {
		t.Errorf("view holds %d rows, cap is %d", n, maxViewEntries)
	}
}

// TestViewCharacterizeColumns: the batch path's rows equal the cached
// rows at one and two workers, with the batch above the threshold where
// rows stripe over the pool.
func TestViewCharacterizeColumns(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	v := NewView(m)
	dists := make([]units.Meter, batchParThreshold+36)
	for i := range dists {
		dists[i] = units.Meter(0.2 + 0.05*float64(i))
	}
	for _, workers := range []int{1, 2} {
		var cols phy.LinkColumns
		v.CharacterizeColumns(workers, dists, &cols)
		if len(cols.Len) != len(dists) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(cols.Len), len(dists))
		}
		for k, d := range dists {
			sameLinks(t, "columns", cols.Row(k), v.Characterize(d))
		}
	}
}
