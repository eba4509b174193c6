package sim

import (
	"errors"
	"fmt"

	"braidio/internal/baseline"
	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/linkcache"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// PairResult is the outcome of one device-pair scenario cell.
type PairResult struct {
	// TX and RX are the endpoint devices (TX transmits).
	TX, RX energy.Device
	// Distance between them.
	Distance units.Meter
	// Braidio is the braid engine's run.
	Braidio *core.Result
	// BluetoothBits is the Table 1 baseline's total.
	BluetoothBits float64
	// BestModeBits is the best-single-mode baseline's total; BestMode
	// identifies it.
	BestModeBits float64
	BestMode     phy.Mode
}

// GainVsBluetooth returns total-bits gain over the Bluetooth baseline
// (the cells of Fig. 15/17).
func (r *PairResult) GainVsBluetooth() float64 {
	return r.Braidio.Bits / r.BluetoothBits
}

// GainVsBestMode returns total-bits gain over the best single mode in
// isolation (the cells of Fig. 16).
func (r *PairResult) GainVsBestMode() float64 {
	return r.Braidio.Bits / r.BestModeBits
}

// RunPair runs the unidirectional continuous-transfer scenario of §6.3:
// both devices start full; tx streams to rx at the given distance until
// either battery dies. It characterizes the distance once, for both the
// braid and the best-single-mode baseline. A distance where no mode
// works returns an error wrapping core.ErrOutOfRange.
func RunPair(m *phy.Model, d units.Meter, tx, rx energy.Device) (*PairResult, error) {
	if m == nil {
		return nil, fmt.Errorf("sim: nil model")
	}
	links := linkcache.Characterize(m, d)
	var res *core.Result
	err := core.ErrOutOfRange
	if len(links) > 0 {
		braid := core.DefaultBraid(m, d)
		braid.Links = links
		res, err = braid.RunFresh(tx.Capacity, rx.Capacity)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s→%s at %v m: %w", tx.Name, rx.Name, float64(d), err)
	}
	single, err := core.BestSingleMode(links, tx.Capacity.Joules(), rx.Capacity.Joules())
	if err != nil {
		return nil, err
	}
	return &PairResult{
		TX: tx, RX: rx, Distance: d,
		Braidio:       res,
		BluetoothBits: baseline.Default.BitsUntilDeath(tx.Capacity.Joules(), rx.Capacity.Joules()),
		BestModeBits:  single.Bits,
		BestMode:      single.Dominant(),
	}, nil
}

// Matrix is a device×device gain matrix: Cells[row][col] is the gain when
// the column device transmits to the row device, matching the paper's
// "device on horizontal axis transmits to device on the vertical axis".
type Matrix struct {
	Devices []energy.Device
	Cells   [][]float64
}

// At returns the cell for a transmitter column and receiver row by
// device name.
func (m *Matrix) At(txName, rxName string) (float64, bool) {
	col, row := -1, -1
	for i, d := range m.Devices {
		if d.Name == txName {
			col = i
		}
		if d.Name == rxName {
			row = i
		}
	}
	if col < 0 || row < 0 {
		return 0, false
	}
	return m.Cells[row][col], true
}

// Max returns the largest cell value.
func (m *Matrix) Max() float64 {
	best := 0.0
	for _, row := range m.Cells {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// Diagonal returns the equal-device cells.
func (m *Matrix) Diagonal() []float64 {
	out := make([]float64, len(m.Devices))
	for i := range m.Devices {
		out[i] = m.Cells[i][i]
	}
	return out
}

// gainFn computes one cell's gain for a tx→rx pair. Implementations
// must be safe for concurrent use (cells run concurrently, each with
// its own batteries and braid state).
type gainFn func(tx, rx energy.Device) (float64, error)

// buildMatrix computes every cell on par's GOMAXPROCS-bounded pool
// (cell costs vary by orders of magnitude with battery size, so cells,
// not rows, are the unit of work). Each cell writes only its own slot.
// Cell errors are joined in row-major cell order and the matrix is
// withheld.
func buildMatrix(devices []energy.Device, f gainFn) (*Matrix, error) {
	n := len(devices)
	m := &Matrix{Devices: devices, Cells: make([][]float64, n)}
	for row := range m.Cells {
		m.Cells[row] = make([]float64, n)
	}
	err := par.ForErr(0, n*n, func(i int) error {
		row, col := i/n, i%n
		g, err := f(devices[col], devices[row])
		m.Cells[row][col] = g
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// GainMatrixBluetooth builds the Fig. 15 matrix: Braidio vs Bluetooth,
// unidirectional, at the given distance.
func GainMatrixBluetooth(m *phy.Model, d units.Meter, devices []energy.Device) (*Matrix, error) {
	return buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		r, err := RunPair(m, d, tx, rx)
		if err != nil {
			return 0, err
		}
		return r.GainVsBluetooth(), nil
	})
}

// GainMatrixBestMode builds the Fig. 16 matrix: Braidio vs the best of
// its own three modes used exclusively.
func GainMatrixBestMode(m *phy.Model, d units.Meter, devices []energy.Device) (*Matrix, error) {
	return buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		r, err := RunPair(m, d, tx, rx)
		if err != nil {
			return 0, err
		}
		return r.GainVsBestMode(), nil
	})
}

// BidirectionalResult is the outcome of the role-swapping scenario of
// Fig. 17.
type BidirectionalResult struct {
	A, B energy.Device
	// Bits is Braidio's total (both directions).
	Bits float64
	// BluetoothBits is the baseline's total.
	BluetoothBits float64
	// Rounds of role swapping performed.
	Rounds int
}

// Gain returns the Fig. 17 cell value.
func (r *BidirectionalResult) Gain() float64 { return r.Bits / r.BluetoothBits }

// RunBidirectional alternates equal-sized chunks in each direction
// ("transmitter and receiver switch roles after sending a certain amount
// of packets; equal amount of data is transmitted in both directions")
// until either battery dies.
func RunBidirectional(m *phy.Model, d units.Meter, a, b energy.Device) (*BidirectionalResult, error) {
	ba := a.NewBattery()
	bb := b.NewBattery()

	// Chunk size: a small slice of the projected one-way lifetime so
	// many role swaps happen before death.
	links := linkcache.Characterize(m, d)
	alloc, err := core.Optimize(links, ba.Remaining(), bb.Remaining())
	if err != nil {
		return nil, err
	}
	chunk := alloc.Bits / 50
	if chunk < 1 {
		chunk = 1
	}

	// Every chunk runs the one characterized row through one braid,
	// scratch and result; a run carries nothing into the next but the
	// batteries.
	braid := core.DefaultBraid(m, d)
	braid.Links = links
	braid.MaxBits = chunk
	var scratch core.RunScratch
	var run core.Result
	res := &BidirectionalResult{A: a, B: b}
	aToB := true
	for !ba.Empty() && !bb.Empty() {
		txBatt, rxBatt := ba, bb
		if !aToB {
			txBatt, rxBatt = bb, ba
		}
		if err := braid.RunInto(&run, &scratch, txBatt, rxBatt); err != nil {
			return nil, err
		}
		res.Bits += run.Bits
		res.Rounds++
		if run.Bits < chunk*0.5 {
			break // one side is effectively dead
		}
		aToB = !aToB
	}

	// Bluetooth baseline: alternating roles, each device pays
	// (TX+RX)/2 per delivered bit on average; the smaller battery
	// limits.
	txCost, rxCost := baseline.Default.PerBit()
	per := (float64(txCost) + float64(rxCost)) / 2
	minBudget := min(float64(a.Capacity.Joules()), float64(b.Capacity.Joules()))
	res.BluetoothBits = minBudget / per
	return res, nil
}

// GainMatrixBidirectional builds the Fig. 17 matrix.
func GainMatrixBidirectional(m *phy.Model, d units.Meter, devices []energy.Device) (*Matrix, error) {
	return buildMatrix(devices, func(tx, rx energy.Device) (float64, error) {
		r, err := RunBidirectional(m, d, tx, rx)
		if err != nil {
			return 0, err
		}
		return r.Gain(), nil
	})
}

// DistanceSweep computes gain-vs-Bluetooth across distances for a
// transmitter→receiver pair — one curve of Fig. 18. Distances where
// Braidio cannot operate at all are skipped.
func DistanceSweep(m *phy.Model, tx, rx energy.Device, distances []units.Meter) (stats.Series, error) {
	var out stats.Series
	for _, d := range distances {
		r, err := RunPair(m, d, tx, rx)
		if errors.Is(err, core.ErrOutOfRange) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, stats.Point{X: float64(d), Y: r.GainVsBluetooth()})
	}
	if len(out) == 0 {
		return nil, core.ErrOutOfRange
	}
	return out, nil
}
