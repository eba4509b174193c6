package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	const sample = `goos: linux
goarch: amd64
pkg: braidio
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkWaveformFrame           	    9403	     26645 ns/op	   68160 B/op	       4 allocs/op
BenchmarkWaveformFrameZeroAlloc-8	   12661	     19508 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyticBER-8           	98765432	        12.5 ns/op
PASS
ok  	braidio	1.898s
`
	rec, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" || !strings.Contains(rec.CPU, "Xeon") {
		t.Errorf("context not captured: %+v", rec)
	}
	if len(rec.Results) != 3 {
		t.Fatalf("%d results, want 3", len(rec.Results))
	}
	r0 := rec.Results[0]
	if r0.Name != "WaveformFrame" || r0.NsPerOp != 26645 || r0.BytesPerOp != 68160 || r0.AllocsPerOp != 4 {
		t.Errorf("result 0 = %+v", r0)
	}
	if r1 := rec.Results[1]; r1.Name != "WaveformFrameZeroAlloc" || r1.AllocsPerOp != 0 {
		t.Errorf("result 1 = %+v (GOMAXPROCS suffix must be stripped, zero allocs preserved)", r1)
	}
	if r2 := rec.Results[2]; r2.Name != "AnalyticBER" || r2.NsPerOp != 12.5 || r2.BytesPerOp != -1 || r2.AllocsPerOp != -1 {
		t.Errorf("result 2 = %+v (missing -benchmem fields must be -1)", r2)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok braidio 1s\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestParseBenchProcs is `go test -bench … -cpu 1,2` output: go test
// prints no suffix at GOMAXPROCS 1 and -2 at 2, so the two AnalyticBER
// lines must stay apart by Procs, and only a trailing -<digits> is a
// suffix.
func TestParseBenchProcs(t *testing.T) {
	const sample = `BenchmarkAnalyticBER                 	98765432	        12.5 ns/op
BenchmarkAnalyticBER-2               	98765432	        13.5 ns/op
BenchmarkNetFleetHour/workers=8      	   10000	    101000 ns/op
BenchmarkNetFleetHour/workers=8-2    	   10000	    179000 ns/op
BenchmarkCharacterize/cold-start     	   50000	     16000 ns/op
BenchmarkCharacterize/cold-start-2   	   50000	     16500 ns/op
`
	rec, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		procs int
	}{
		{"AnalyticBER", 1}, {"AnalyticBER", 2},
		{"NetFleetHour/workers=8", 1}, {"NetFleetHour/workers=8", 2},
		{"Characterize/cold-start", 1}, {"Characterize/cold-start", 2},
	}
	if len(rec.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rec.Results), len(want))
	}
	for i, w := range want {
		if r := rec.Results[i]; r.Name != w.name || r.Procs != w.procs {
			t.Errorf("result %d = %q at GOMAXPROCS %d, want %q at %d", i, r.Name, r.Procs, w.name, w.procs)
		}
	}
}

// TestDiffBenchPairsByProcs: results pair by name and GOMAXPROCS; a
// record without Procs pairs by name alone; a name the other side holds
// only at another GOMAXPROCS is not comparable, never a pass or a
// regression.
func TestDiffBenchPairsByProcs(t *testing.T) {
	newRec := &BenchRecord{Results: []BenchResult{
		{Name: "AnalyticBER", Procs: 1, NsPerOp: 12},
		{Name: "AnalyticBER", Procs: 2, NsPerOp: 30},
		{Name: "HubHour", Procs: 2, NsPerOp: 65000},
	}}
	names := func(lines []diffLine) (out []string) {
		for _, l := range lines {
			if l.regressed {
				out = append(out, l.name+" REGRESSED")
			} else {
				out = append(out, l.name)
			}
		}
		return out
	}

	legacy := &BenchRecord{Results: []BenchResult{
		{Name: "AnalyticBER", NsPerOp: 12},
		{Name: "HubHour", NsPerOp: 62500},
	}}
	lines, onlyOld, onlyNew, nc := diffBench(legacy, newRec, 2.0)
	if got, want := names(lines), []string{"AnalyticBER", "AnalyticBER-2", "HubHour-2"}; !reflect.DeepEqual(got, want) ||
		len(onlyOld)+len(onlyNew)+len(nc) != 0 {
		t.Errorf("legacy baseline: lines %v, removed %v, new %v, not comparable %v; want %v paired by name",
			got, onlyOld, onlyNew, nc, want)
	}

	// A GOMAXPROCS 1 baseline: AnalyticBER pairs at 1 and regresses
	// there; its -2 run and HubHour at 2 have no counterpart.
	atOne := &BenchRecord{Results: []BenchResult{
		{Name: "AnalyticBER", Procs: 1, NsPerOp: 3},
		{Name: "HubHour", Procs: 1, NsPerOp: 20000},
		{Name: "Table1", Procs: 1, NsPerOp: 2000},
	}}
	lines, onlyOld, onlyNew, nc = diffBench(atOne, newRec, 2.0)
	if got, want := names(lines), []string{"AnalyticBER REGRESSED"}; !reflect.DeepEqual(got, want) {
		t.Errorf("lines = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(onlyOld, []string{"Table1"}) || len(onlyNew) != 0 {
		t.Errorf("removed %v, new %v; want only Table1 removed", onlyOld, onlyNew)
	}
	if want := []string{"AnalyticBER", "HubHour"}; !reflect.DeepEqual(nc, want) {
		t.Errorf("not comparable = %v, want %v", nc, want)
	}
}
