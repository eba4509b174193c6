package experiments

import (
	"fmt"

	"braidio/internal/energy"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// matrixDistance is the separation for the device-pair matrices: "the
// transmitter and receiver are less than one meter apart, so all modes
// can operate at their peak bitrate".
const matrixDistance units.Meter = 0.5

func deviceLabels() []string {
	labels := make([]string, len(energy.Catalog))
	for i, d := range energy.Catalog {
		labels[i] = d.Name
	}
	return labels
}

func matrixReport(id, title, claim string, build func() (*sim.Matrix, error)) (*Report, error) {
	mat, err := build()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: title, PaperClaim: claim}
	r.Matrices = append(r.Matrices, NamedMatrix{
		Name:      "gain (column device transmits to row device)",
		RowLabels: deviceLabels(),
		ColLabels: deviceLabels(),
		Cells:     mat.Cells,
	})
	r.AddNote("max gain = %.3g", mat.Max())
	diag := mat.Diagonal()
	r.AddNote("diagonal gain = %.3g .. %.3g", stats.Percentile(diag, 0), stats.Percentile(diag, 100))
	return r, nil
}

// Fig15 reproduces Fig. 15: the 10×10 Braidio-vs-Bluetooth gain matrix
// for unidirectional transfers. Its notes read the catalog's extreme
// pair from the matrix, where the column transmits to the row.
func Fig15() (*Report, error) {
	r, err := matrixReport("fig15",
		"Performance gain over Bluetooth (unidirectional)",
		"up to 397× at extreme asymmetry; 1.43× on the equal-energy diagonal",
		func() (*sim.Matrix, error) {
			return sim.GainMatrixBluetooth(phy.NewModel(), matrixDistance, energy.Catalog)
		})
	if err != nil {
		return nil, err
	}
	cells, last := r.Matrices[0].Cells, len(energy.Catalog)-1
	r.AddNote("FuelBand→MBP15 %.3g× (paper 397), MBP15→FuelBand %.3g× (paper 299)",
		cells[last][0], cells[0][last])
	return r, nil
}

// Fig16 reproduces Fig. 16: Braidio against the best of its own modes in
// isolation.
func Fig16() (*Report, error) {
	return matrixReport("fig16",
		"Performance gain over the best single mode",
		"switching provides up to 78% improvement; near 1× at extreme asymmetry; 1.43× on the diagonal",
		func() (*sim.Matrix, error) {
			return sim.GainMatrixBestMode(phy.NewModel(), matrixDistance, energy.Catalog)
		})
}

// Fig17 reproduces Fig. 17: the bidirectional (role-swapping) gain
// matrix.
func Fig17() (*Report, error) {
	return matrixReport("fig17",
		"Performance gain over Bluetooth (bidirectional)",
		"up to 368×; slightly better than unidirectional at high asymmetry",
		func() (*sim.Matrix, error) {
			return sim.GainMatrixBidirectional(phy.NewModel(), matrixDistance, energy.Catalog)
		})
}

// fig18Pairs are the three device pairs of Fig. 18, swept in both
// directions.
var fig18Pairs = [][2]string{
	{"iPhone 6S", "Apple Watch"},
	{"Surface Book", "Nexus 6P"},
	{"iPhone 6S", "Nike Fuel Band"},
}

// Fig18 reproduces Fig. 18: gain over Bluetooth vs distance for three
// device pairs, both directions.
func Fig18() (*Report, error) {
	r := &Report{
		ID:         "fig18",
		Title:      "Performance gain over Bluetooth vs distance",
		PaperClaim: "strong at short range; knees as backscatter slows and dies (0.9/1.8/2.4 m); only receiver-favoring gains beyond 2.4 m; ≈1× beyond ~5 m",
	}
	m := phy.NewModel()
	distances := []units.Meter{}
	for d := 0.4; d <= 6.0; d += 0.2 {
		distances = append(distances, units.Meter(d))
	}
	for _, pair := range fig18Pairs {
		a, _ := energy.DeviceByName(pair[0])
		b, _ := energy.DeviceByName(pair[1])
		for _, dir := range []struct{ tx, rx energy.Device }{{a, b}, {b, a}} {
			s, err := sim.DistanceSweep(m, dir.tx, dir.rx, distances)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s to %s", dir.tx.Name, dir.rx.Name)
			r.Series = append(r.Series, NamedSeries{Name: name + " (m vs gain)", Data: s})
			r.AddNote("%s: %.3g× at 0.4 m, %.3g× at 3 m, %.3g× at 6 m",
				name, s.Interpolate(0.4), s.Interpolate(3), s.Interpolate(6))
		}
	}
	return r, nil
}
