package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// expectedJSON pins, per workload and scale, the output fingerprints of
// seeds 1 and 2: the sim workload's fleet and network digests, the
// serve-epoch workload's digest chain, and the repro workload's output
// hash. A change that alters simulation output fails the benchmark.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// checkPinned prints a run's fingerprints and compares them with the
// pinned ones for its workload, scale and seed, if any.
func checkPinned(cfg *config, workload string, got []string) error {
	scale := "full"
	if cfg.short {
		scale = "short"
	}
	fmt.Printf("fingerprints %s/%s seed %d: %s\n", workload, scale, cfg.seed, strings.Join(got, " "))
	var pins map[string]map[string][]string
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return fmt.Errorf("testdata/expected.json: %w", err)
	}
	want, ok := pins[workload+"/"+scale][strconv.FormatUint(cfg.seed, 10)]
	if !ok {
		return nil
	}
	if strings.Join(want, " ") != strings.Join(got, " ") {
		return fmt.Errorf("%s seed %d: fingerprints %v, pinned %v", workload, cfg.seed, got, want)
	}
	return nil
}
