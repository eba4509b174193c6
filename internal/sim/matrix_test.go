package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
)

// TestMatrixGoldenCacheOnOff is the golden test for the link cache:
// every cell of the Fig. 15 and Fig. 16 matrices must be bit-identical
// whether the cache is on (the default) or forced off.
func TestMatrixGoldenCacheOnOff(t *testing.T) {
	m := phy.NewModel()
	devices := energy.Catalog

	type build func() (*Matrix, error)
	builds := map[string]build{
		"fig15-0.5m": func() (*Matrix, error) { return GainMatrixBluetooth(m, 0.5, devices) },
		"fig16-0.5m": func() (*Matrix, error) { return GainMatrixBestMode(m, 0.5, devices) },
		"fig15-3m":   func() (*Matrix, error) { return GainMatrixBluetooth(m, 3, devices) },
	}

	for name, f := range builds {
		on, err := f()
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}

		linkcache.SetEnabled(false)
		off, err := f()
		linkcache.SetEnabled(true)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}

		for r := range on.Cells {
			for c := range on.Cells[r] {
				if on.Cells[r][c] != off.Cells[r][c] {
					t.Errorf("%s cell [%d][%d]: cached %v != uncached %v (not bit-identical)",
						name, r, c, on.Cells[r][c], off.Cells[r][c])
				}
			}
		}
	}
}

// errBoom is the sentinel the worker-pool tests propagate.
var errBoom = errors.New("boom")

// TestBuildMatrixPropagatesErrors: a failing cell must surface through
// errors.Join with its context intact, and the matrix must be withheld.
func TestBuildMatrixPropagatesErrors(t *testing.T) {
	devices := energy.Catalog[:4]
	mat, err := buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		if tx.Name == devices[2].Name && rx.Name == devices[1].Name {
			return 0, fmt.Errorf("cell %s→%s: %w", tx.Name, rx.Name, errBoom)
		}
		return 1, nil
	})
	if mat != nil {
		t.Error("matrix returned alongside an error")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
}

// TestBuildMatrixBoundedConcurrency: the pool never runs more cells at
// once than GOMAXPROCS.
func TestBuildMatrixBoundedConcurrency(t *testing.T) {
	devices := energy.Catalog[:5]
	var inFlight, peak atomic.Int64
	_, err := buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		inFlight.Add(-1)
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(runtime.GOMAXPROCS(0)); peak.Load() > limit {
		t.Errorf("observed %d concurrent cells, limit %d", peak.Load(), limit)
	}
}

// TestBuildMatrixMatchesSequential: the pooled matrix equals a plain
// sequential computation of the same gain function.
func TestBuildMatrixMatchesSequential(t *testing.T) {
	devices := energy.Catalog[:4]
	f := func(tx, rx energy.Device) (float64, error) {
		return float64(tx.Capacity) / float64(rx.Capacity), nil
	}
	mat, err := buildMatrix(devices, f)
	if err != nil {
		t.Fatal(err)
	}
	for r, rx := range devices {
		for c, tx := range devices {
			want, _ := f(tx, rx)
			if mat.Cells[r][c] != want {
				t.Errorf("cell [%d][%d] = %v, want %v", r, c, mat.Cells[r][c], want)
			}
		}
	}
}
