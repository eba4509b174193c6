# Braidio build and reproduction targets. Stdlib-only Go; everything runs
# offline.

GO ?= go

.PHONY: all build test vet race fuzz cover bench bench-smoke bench-diff repro csv examples clean

all: build vet test

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat any file, so the test gate
# keeps the tree formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needs to be run on:"; echo "$$unformatted"; exit 1; fi

# Default test gate: vet everything, run the full suite, then re-run the
# concurrency-sensitive internal packages under the race detector.
test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/...

race:
	$(GO) test -race ./...

# Short fuzz passes over the frame codec, the line-coding round trip,
# the network planner and the serve journal's line decoder (extend
# -fuzztime for deeper runs). FuzzDecode covers arbitrary buffers;
# FuzzDecodeMutated covers single-mutation corruption of valid frames
# (bit flips and truncations at the validation boundaries); FuzzPlan
# covers adversarial topologies (NaN/infinite positions, negative loads,
# degenerate batteries) against net.Plan's typed-error contract;
# FuzzDecodeJournalLine feeds arbitrary lines, framed or bare, to the
# journal decoder that recovery and replay run on files from disk.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode$$ -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzDecodeMutated -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/linecode
	$(GO) test -run=NONE -fuzz=FuzzPlan -fuzztime=10s ./internal/net
	$(GO) test -run=NONE -fuzz=FuzzDecodeJournalLine -fuzztime=10s ./internal/serve

# Coverage floors for the paper-critical packages (offload solver, hub
# engine, MAC, network scheduler, and lp, the Eq. (1) reference the
# offload property tests check against). Each is set a few points below
# the coverage measured when it was set (core 92.1, hub 86.8, mac 90.4,
# net 87.0, lp 92.5) so refactors have headroom but coverage cannot
# silently erode; raise the floors when coverage improves.
COVER_FLOOR_CORE ?= 90.0
COVER_FLOOR_HUB  ?= 84.0
COVER_FLOOR_MAC  ?= 88.0
COVER_FLOOR_NET  ?= 85.0
COVER_FLOOR_LP   ?= 90.0

cover:
	@set -e; \
	for spec in core:$(COVER_FLOOR_CORE) hub:$(COVER_FLOOR_HUB) mac:$(COVER_FLOOR_MAC) net:$(COVER_FLOOR_NET) lp:$(COVER_FLOOR_LP); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -count=1 -coverprofile=cover_$$pkg.out ./internal/$$pkg); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		awk -v pkg="$$pkg" -v pct="$$pct" -v floor="$$floor" 'BEGIN { \
			if (pct == "" || pct + 0 < floor + 0) { \
				printf "FAIL: internal/%s coverage %s%% below floor %s%%\n", pkg, pct, floor; exit 1 \
			} \
			printf "ok: internal/%s coverage %s%% >= floor %s%%\n", pkg, pct, floor }'; \
	done

# Run the benchmark suite (paper tables/figures, the waveform engine and
# Monte Carlo sweeps, the hub/fleet engine, the serve epoch/contention
# benchmarks, the network scheduler, plus the mobility walks), keep the
# raw text, and distill it into the machine-readable perf record
# BENCH_pr12.json.
bench:
	$(GO) test -run=NONE -bench=. -benchmem . ./internal/hub ./internal/serve ./internal/net ./internal/sim | tee bench_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson BENCH_pr12.json < bench_output.txt

# Quick compile-and-run smoke over every benchmark in the repo (one
# iteration each); CI runs this to keep benchmarks from bit-rotting.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regression gate: re-run the root suite briefly and diff it against the
# committed baseline record. The threshold is generous (+200%) because
# CI runners vary widely in clock speed — this catches algorithmic
# regressions (work or allocations growing by integer factors), not
# single-digit-percent noise. benchtime is time-based, not -Nx: a fixed
# iteration count under-amortizes warm-up for sub-microsecond benchmarks
# and false-positives the gate.
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=100ms . ./internal/hub ./internal/serve ./internal/net ./internal/sim > bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson bench_new.json < bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchdiff BENCH_pr12.json -threshold 2.0 bench_new.json

# Print every reproduced artifact to stdout.
repro:
	$(GO) run ./cmd/braidio-bench

# Write machine-readable CSVs for all artifacts to out/.
csv:
	$(GO) run ./cmd/braidio-bench -csv out/ > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wearable-sync
	$(GO) run ./examples/camera-stream
	$(GO) run ./examples/regime-explorer
	$(GO) run ./examples/body-hub

clean:
	rm -rf out/ test_output.txt bench_output.txt bench_diff_output.txt bench_new.json cover_*.out
