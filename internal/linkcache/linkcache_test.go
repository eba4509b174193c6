package linkcache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// resetAll restores a pristine cache between tests (the cache is
// process-global).
func resetAll() {
	Flush()
	ResetStats()
	SetEnabled(true)
}

func TestCharacterizeMatchesDirect(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	for _, d := range []units.Meter{0.1, 0.5, 3, 10} {
		direct := m.Characterize(d)
		cached := Characterize(m, d)
		if !reflect.DeepEqual(direct, cached) {
			t.Errorf("d=%v: cached links differ from direct characterization", float64(d))
		}
		again := Characterize(m, d)
		if !reflect.DeepEqual(direct, again) {
			t.Errorf("d=%v: second lookup differs", float64(d))
		}
	}
	s := Snapshot()
	if s.Misses != 4 || s.Hits != 4 {
		t.Errorf("stats = %d hits / %d misses, want 4/4", s.Hits, s.Misses)
	}
}

// TestModelValueKeying: mutating a model keys a different entry, so the
// cache can never serve stale links.
func TestModelValueKeying(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	plain := Characterize(m, 0.5)
	m.FadeMargin = 20
	faded := Characterize(m, 0.5)
	if reflect.DeepEqual(plain, faded) {
		t.Fatal("fade-margin model served the free-space entry")
	}
	if !reflect.DeepEqual(faded, m.Characterize(0.5)) {
		t.Fatal("faded entry differs from direct characterization")
	}
	// Equal model values share one intern ID; the faded model and a
	// copy with Interference raised each get their own.
	plainM, raised := phy.NewModel(), phy.NewModel()
	raised.Interference += 1e-9
	if modelID(plainM) != modelID(phy.NewModel()) {
		t.Error("equal models interned under different IDs")
	}
	if modelID(m) == modelID(plainM) || modelID(raised) == modelID(plainM) {
		t.Error("a mutated model shares the plain model's ID")
	}
}

// TestInternClearNeverReusesIDs: a full intern table is cleared, and
// every ID handed out afterwards is new, so rows keyed by a forgotten
// ID can never serve another model.
func TestInternClearNeverReusesIDs(t *testing.T) {
	resetAll()
	base := phy.NewModel()
	before := modelID(base)
	Characterize(base, 0.5)
	seen := map[uint64]bool{before: true}
	m := *base
	for i := 0; i <= maxModels; i++ { // one more model than fits
		m.Interference = float64(i+1) * 1e-12
		id := modelID(&m)
		if seen[id] {
			t.Fatalf("ID %d handed out twice", id)
		}
		seen[id] = true
		if i%256 == 0 && !reflect.DeepEqual(Characterize(&m, 0.5), m.Characterize(0.5)) {
			t.Fatalf("model %d served another model's row", i)
		}
	}
	after := modelID(base)
	if after == before {
		t.Fatal("the intern table was never cleared; test is vacuous")
	}
	if seen[after] {
		t.Errorf("re-interned model got a used ID %d", after)
	}
	if !reflect.DeepEqual(Characterize(base, 0.5), base.Characterize(0.5)) {
		t.Error("re-interned model's row differs from direct characterization")
	}
}

func TestSNRAndBERMatchDirect(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	for _, mode := range phy.Modes {
		for _, r := range phy.Rates {
			for _, d := range []units.Meter{0.2, 1.5} {
				if got, want := SNR(m, mode, r, d), m.SNR(mode, r, d); got != want {
					t.Errorf("SNR(%v,%v,%v) = %v, want %v", mode, r, float64(d), got, want)
				}
				if got, want := BER(m, mode, r, d), m.BER(mode, r, d); got != want {
					t.Errorf("BER(%v,%v,%v) = %v, want %v", mode, r, float64(d), got, want)
				}
				// Second lookups must serve the memo with identical bits.
				if got, want := SNR(m, mode, r, d), m.SNR(mode, r, d); got != want {
					t.Errorf("memoized SNR differs: %v vs %v", got, want)
				}
			}
		}
	}
}

func TestDisabledBypassesCache(t *testing.T) {
	resetAll()
	SetEnabled(false)
	defer SetEnabled(true)
	m := phy.NewModel()
	if !reflect.DeepEqual(Characterize(m, 0.5), m.Characterize(0.5)) {
		t.Fatal("disabled cache returned wrong links")
	}
	if s := Snapshot(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("disabled cache touched state: %+v", s)
	}
	if Enabled() {
		t.Error("Enabled() = true after SetEnabled(false)")
	}
}

// TestEvictionBounded: the tables flush rather than grow without bound
// under continuous-mobility key churn.
func TestEvictionBounded(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	for i := 0; i < maxEntries+100; i++ {
		Characterize(m, units.Meter(0.1+float64(i)*1e-4))
	}
	if s := Snapshot(); s.Entries > maxEntries {
		t.Errorf("%d resident entries, cap is %d", s.Entries, maxEntries)
	}
}

// TestChurnKeepsHitRate is the eviction-stampede regression test: a
// cyclic mobility scan over a working set slightly larger than the
// cache's capacity. The old clear-all eviction flushed the whole table
// every time an insert crossed maxEntries, so a repeated scan re-missed
// essentially every key (MRU pathology: ~0% hits after the first
// cycle). Per-shard random-victim eviction keeps most of the working
// set resident, so later cycles must see a healthy hit rate.
func TestChurnKeepsHitRate(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	keys := maxEntries + maxEntries/4 // 25% overflow
	distance := func(i int) units.Meter { return units.Meter(0.1 + float64(i)*1e-4) }
	// Cold cycle populates; do not count its misses against the policy.
	for i := 0; i < keys; i++ {
		Characterize(m, distance(i))
	}
	ResetStats()
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < keys; i++ {
			Characterize(m, distance(i))
		}
	}
	s := Snapshot()
	rate := float64(s.Hits) / float64(s.Hits+s.Misses)
	t.Logf("hit rate %.3f over %d churn lookups (%d shards)", rate, s.Hits+s.Misses, s.Shards)
	if rate < 0.3 {
		t.Errorf("hit rate %.3f under 25%%-overflow churn; clear-all eviction regressed (want > 0.3)", rate)
	}
	if s.Entries > maxEntries {
		t.Errorf("%d resident entries, cap is %d", s.Entries, maxEntries)
	}
}

// TestConcurrentChurnKeepsHitRate runs the overflow scan from many
// goroutines at once — the "concurrent writers clear() each other's
// fresh entries" stampede. Under -race this is also the sharded write
// path's race test.
func TestConcurrentChurnKeepsHitRate(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	keys := maxEntries + maxEntries/4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for cycle := 0; cycle < 2; cycle++ {
				for i := g; i < keys; i += 8 {
					Characterize(m, units.Meter(0.1+float64(i)*1e-4))
				}
			}
		}(g)
	}
	wg.Wait()
	ResetStats()
	for i := 0; i < keys; i++ {
		Characterize(m, units.Meter(0.1+float64(i)*1e-4))
	}
	s := Snapshot()
	rate := float64(s.Hits) / float64(s.Hits+s.Misses)
	if rate <= 0 {
		t.Errorf("hit rate %.3f after concurrent churn, want > 0", rate)
	}
}

// TestShardSpread: the key hash must actually stripe a mobility sweep
// across shards, not pile everything onto a few locks.
func TestShardSpread(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	for i := 0; i < 1024; i++ {
		Characterize(m, units.Meter(0.1+float64(i)*1e-3))
	}
	occupied := 0
	for i := range shards {
		shards[i].mu.RLock()
		if len(shards[i].links) > 0 {
			occupied++
		}
		shards[i].mu.RUnlock()
	}
	if occupied < shardCount/2 {
		t.Errorf("1024 distinct distances landed on only %d/%d shards", occupied, shardCount)
	}
}

// TestConcurrentAccess hammers all three memo tables from many
// goroutines; run under -race this is the cache's data-race test.
func TestConcurrentAccess(t *testing.T) {
	resetAll()
	m := phy.NewModel()
	want := m.Characterize(0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := units.Meter(0.1 + float64((g+i)%7)*0.3)
				Characterize(m, d)
				SNR(m, phy.ModePassive, units.Rate100k, d)
				BER(m, phy.ModeBackscatter, units.Rate10k, d)
			}
			if got := Characterize(m, 0.5); !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("goroutine %d saw wrong links", g))
			}
		}(g)
	}
	wg.Wait()
}
