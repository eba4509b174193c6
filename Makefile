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

# Short fuzz passes over the library's public API, the frame codec, the
# line-coding round trip, the network planner, the serve journal's line
# decoder, its journal reader and the daemon's HTTP bodies (extend
# -fuzztime for deeper runs). FuzzPublicAPI drives a Pair's entry points
# with arbitrary capacities, distances, bit budgets, rates and seeds,
# demanding no panic, ErrBadDevice for a bad capacity and finite results;
# FuzzDecode covers arbitrary buffers; FuzzDecodeMutated covers
# single-mutation corruption of valid frames (bit flips and truncations
# at the validation boundaries);
# FuzzPlan covers adversarial topologies (NaN/infinite positions,
# negative loads, degenerate batteries) against the typed-error
# contract of net.New and Network.PlanRound;
# FuzzDecodeJournalLine feeds arbitrary lines, framed or bare,
# to the journal line decoder and holds the journal's appender to
# json.Marshal's bytes on every record it accepts; FuzzReplay feeds arbitrary streams to
# Replay, the one journal reader recovery also runs, so config-headed
# and snapshot-headed journals (snapshot restore included) are decoded
# and replayed from untrusted bytes; FuzzHTTPBodies posts arbitrary
# bodies to the register, update and hub routes, runs two epochs and
# reads plans back, demanding a typed status and never a panic or a 5xx
# plan read.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzPublicAPI -fuzztime=10s .
	$(GO) test -run=NONE -fuzz=FuzzDecode$$ -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzDecodeMutated -fuzztime=10s ./internal/frame
	$(GO) test -run=NONE -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/linecode
	$(GO) test -run=NONE -fuzz=FuzzPlan -fuzztime=10s ./internal/net
	$(GO) test -run=NONE -fuzz=FuzzDecodeJournalLine -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzHTTPBodies -fuzztime=10s ./internal/serve

# Coverage floors for the paper-critical packages (offload solver, hub
# engine, MAC, network scheduler, lp, the Eq. (1) reference the offload
# property tests check against, linkcache, the memo every planner reads
# its links through, serve, the planning daemon's engine and journal
# reader, and sim, the figure scenarios that run the braid to battery
# death). Each is set about two points below the coverage measured
# when it was set (core 92.1, hub 96.6, mac 90.4, net 90.3, lp 92.5,
# linkcache 97.8, serve 92.8, sim 95.3) so refactors have headroom but
# coverage cannot silently erode; raise the floors when coverage
# improves.
COVER_FLOOR_CORE      ?= 90.0
COVER_FLOOR_HUB       ?= 94.5
COVER_FLOOR_MAC       ?= 88.0
COVER_FLOOR_NET       ?= 88.0
COVER_FLOOR_LP        ?= 90.0
COVER_FLOOR_LINKCACHE ?= 95.0
COVER_FLOOR_SERVE     ?= 90.5
COVER_FLOOR_SIM       ?= 93.0

cover:
	@set -e; \
	for spec in core:$(COVER_FLOOR_CORE) hub:$(COVER_FLOOR_HUB) mac:$(COVER_FLOOR_MAC) net:$(COVER_FLOOR_NET) lp:$(COVER_FLOOR_LP) linkcache:$(COVER_FLOOR_LINKCACHE) serve:$(COVER_FLOOR_SERVE) sim:$(COVER_FLOOR_SIM); do \
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

# Run the benchmark suite (paper tables/figures, the PHY
# characterization at 0.5 m and over 0.3–4.5 m, the hub/fleet engine,
# the serve benchmarks — the registration wave of 100k members and its
# cold plan, the warm drift epoch at 50k and 500k members, and plan
# reads racing an epoch —, the network scheduler's hour over the dense
# golden grid and, as NetFleetHour/relay, over the sparse golden line's
# relay, the mobility walks, the offload solvers and braid run in core,
# the simplex in lp, the per-cell waveform chain in rxchain and its
# parallel sweep, the normal draws in rng, the Q-algorithm round in
# inventory, and modem's analytic BER), keep the raw text, and distill
# it into the machine-readable perf record BENCH_pr23.json.
BENCH_PKGS = . ./internal/hub ./internal/serve ./internal/net ./internal/sim ./internal/core ./internal/lp \
	./internal/rxchain ./internal/rng ./internal/inventory ./internal/modem

bench:
	$(GO) test -run=NONE -bench=. -benchmem $(BENCH_PKGS) | tee bench_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson BENCH_pr23.json < bench_output.txt

# Quick compile-and-run smoke over every benchmark in the repo (one
# iteration each); CI runs this to keep benchmarks from bit-rotting.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regression gate: re-run the suite briefly and diff it against the
# committed baseline record BENCH_pr20.json. A newer record replaces it
# only once the benchmarks whose code it did not change (the rxchain,
# rng and inventory kernels, modem's AnalyticBER, the offload solvers,
# Table1, RxChain, RxChainSweepParallel) read within noise of it, so a
# record taken on a slow host cannot loosen the gate. Results pair by
# name and GOMAXPROCS (by name alone against a record that predates
# it). The threshold is generous (+200%) because CI runners vary
# widely in clock speed — this catches algorithmic regressions (work or
# allocations growing by integer factors), not single-digit-percent
# noise. benchtime is time-based, not -Nx: a fixed iteration count
# under-amortizes warm-up for sub-microsecond benchmarks and
# false-positives the gate.
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=100ms $(BENCH_PKGS) > bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchjson bench_new.json < bench_diff_output.txt
	$(GO) run ./cmd/braidio-bench -benchdiff BENCH_pr20.json -threshold 2.0 bench_new.json

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
