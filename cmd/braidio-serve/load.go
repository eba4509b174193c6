// Load generator for the planning daemon. It registers a large member
// population over the wire, then drives update rounds where a known
// subset drifts past tolerance while another subset jitters within it,
// forces epoch boundaries, and verifies — from the epoch responses and
// a final /metrics scrape — that the dirty-set scheduler re-planned
// exactly the drifted members and nobody else.
//
// The drift/jitter windows are disjoint across rounds, so the expected
// per-round plan count is exact, not statistical: planned == drifted,
// clean == members − drifted.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"braidio/internal/obs"
	"braidio/internal/rng"
	"braidio/internal/serve"
)

type loadConfig struct {
	target string // base URL; empty = in-process server
	cfg    serve.Config
	n      int
	epochs int
	drift  float64
	seed   uint64
	check  bool
}

const registerBatch = 1000

// runLoad drives the generator and verifies the dirty-set accounting.
func runLoad(lc loadConfig) error {
	if lc.n <= 0 || lc.epochs <= 0 {
		return fmt.Errorf("load: need positive -n and -epochs, got %d/%d", lc.n, lc.epochs)
	}

	// Drift windows must not collide across rounds or the expected
	// counts stop being exact; clamp k accordingly.
	k := int(float64(lc.n) * lc.drift)
	if max := lc.n / (2 * lc.epochs); k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}

	base := lc.target
	if base == "" {
		lc.cfg.Rec = obs.NewRecorder()
		// The generator drives epochs explicitly, so the in-process
		// server needs no ticker; the queue bound has to hold one
		// registration wave and one full update round (drift + jitter
		// windows land in a single epoch so the dirty-set accounting
		// stays exact).
		if min := 2 * registerBatch; lc.cfg.QueueCap < min {
			lc.cfg.QueueCap = min
		}
		if min := 2 * k; lc.cfg.QueueCap < min {
			lc.cfg.QueueCap = min
		}
		eng := serve.NewEngine(lc.cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		// Write timeout must outlast a worst-case /v1/epoch: a bulk
		// cold solve of a whole registration wave runs minutes at
		// million-member scale on a small machine.
		srv := &http.Server{
			Handler:           (&serve.Server{Engine: eng}).Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("load: in-process daemon at %s\n", base)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	// Member populations: deterministic energies and distances.
	r := rng.New(lc.seed)
	energies := make([]float64, lc.n)
	distances := make([]float64, lc.n)
	for i := range energies {
		energies[i] = 0.2 + 1.8*r.Float64()
		distances[i] = 0.3 + 4.2*r.Float64()
	}

	// Phase 1: registration in batches, with an epoch whenever the
	// next batch could overflow the admission queue.
	queueCap := lc.cfg.QueueCap
	if queueCap <= 0 {
		queueCap = 1 << 16
	}
	start := time.Now()
	regPlanned, pendingOps := 0, 0
	batch := make([]serve.DeviceRequest, 0, registerBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := postDevices(client, base+"/v1/register", batch); err != nil {
			return err
		}
		pendingOps += len(batch)
		batch = batch[:0]
		return nil
	}
	for i := 0; i < lc.n; i++ {
		batch = append(batch, serve.DeviceRequest{
			ID: memberID(i), EnergyJ: energies[i], DistanceM: distances[i],
		})
		if len(batch) == registerBatch {
			if err := flush(); err != nil {
				return err
			}
			if pendingOps+registerBatch > queueCap {
				res, err := runEpoch(client, base)
				if err != nil {
					return err
				}
				regPlanned += res.Planned
				pendingOps = 0
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	res, err := runEpoch(client, base)
	if err != nil {
		return err
	}
	regPlanned += res.Planned
	regDur := time.Since(start)
	fmt.Printf("load: registered %d members in %v (%.0f members/s), %d registration plans\n",
		lc.n, regDur.Round(time.Millisecond), float64(lc.n)/regDur.Seconds(), regPlanned)

	failures := 0
	if regPlanned != lc.n {
		failures++
		fmt.Printf("load: FAIL registration plans = %d, want %d\n", regPlanned, lc.n)
	}

	// Phase 2: update rounds. Round r drifts members [2rk, 2rk+k) past
	// tolerance and jitters [2rk+k, 2rk+2k) within it.
	updates := 0
	updStart := time.Now()
	var epochDur time.Duration
	for round := 0; round < lc.epochs; round++ {
		lo := 2 * round * k
		reqs := make([]serve.DeviceRequest, 0, 2*k)
		for i := lo; i < lo+k; i++ { // past tolerance: halve the battery
			reqs = append(reqs, serve.DeviceRequest{
				ID: memberID(i), EnergyJ: energies[i] / 2, DistanceM: distances[i],
			})
		}
		for i := lo + k; i < lo+2*k; i++ { // within tolerance: 1% jitter
			reqs = append(reqs, serve.DeviceRequest{
				ID: memberID(i), EnergyJ: energies[i] * 1.01, DistanceM: distances[i],
			})
		}
		for off := 0; off < len(reqs); off += registerBatch {
			end := off + registerBatch
			if end > len(reqs) {
				end = len(reqs)
			}
			if err := postDevices(client, base+"/v1/update", reqs[off:end]); err != nil {
				return err
			}
		}
		updates += len(reqs)

		es := time.Now()
		res, err := runEpoch(client, base)
		if err != nil {
			return err
		}
		epochDur += time.Since(es)
		if res.Planned != k || res.Clean != lc.n-k {
			failures++
			fmt.Printf("load: FAIL round %d: planned %d clean %d, want %d/%d\n",
				round, res.Planned, res.Clean, k, lc.n-k)
		} else {
			fmt.Printf("load: round %d: planned %d (dirty only), clean %d, digest %s\n",
				round, res.Planned, res.Clean, res.Digest)
		}
	}
	updDur := time.Since(updStart)
	fmt.Printf("load: %d updates over %d rounds in %v (%.0f updates/s, avg epoch %v)\n",
		updates, lc.epochs, updDur.Round(time.Millisecond),
		float64(updates)/updDur.Seconds(), (epochDur / time.Duration(lc.epochs)).Round(time.Millisecond))

	// Phase 3: verify the counters from /metrics like an operator would.
	metrics, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}
	wantPlans := uint64(regPlanned + lc.epochs*k)
	checks := []struct {
		name string
		want uint64
	}{
		{"braidio_serve_registers_total", uint64(lc.n)},
		{"braidio_serve_updates_total", uint64(updates)},
		{"braidio_serve_plans_total", wantPlans},
		{"braidio_serve_members", uint64(lc.n)},
	}
	for _, c := range checks {
		got, ok := metrics[c.name]
		if !ok || got != c.want {
			failures++
			fmt.Printf("load: FAIL metric %s = %d (present=%v), want %d\n", c.name, got, ok, c.want)
		}
	}
	fmt.Printf("load: metrics confirm %d plans for %d members across %d epochs — re-plans stayed proportional to drift\n",
		metrics["braidio_serve_plans_total"], metrics["braidio_serve_members"], metrics["braidio_serve_epochs_total"])

	// Phase 4: plan-latency shape from /v1/stats. The first planning
	// epoch is the cold bulk plan — arena growth plus a full-population
	// solve — while the last is a warm steady-state epoch planning only
	// the drifted subset out of a capacity-warm arena. The batched
	// columnar solver's claim is precisely that the steady state is
	// cheap; assert it.
	st, err := fetchStats(client, base)
	if err != nil {
		return err
	}
	fmt.Printf("load: plan latency p50 %.3fms p99 %.3fms, first (cold, bulk) %.3fms, last (warm, drift-only) %.3fms\n",
		st.PlanP50Millis, st.PlanP99Millis, st.FirstPlanMillis, st.LastPlanMillis)
	if st.FirstPlanMillis <= 0 || st.LastPlanMillis <= 0 {
		failures++
		fmt.Printf("load: FAIL plan latency not recorded (first %.3fms, last %.3fms)\n",
			st.FirstPlanMillis, st.LastPlanMillis)
	} else if st.LastPlanMillis >= st.FirstPlanMillis {
		failures++
		fmt.Printf("load: FAIL warm drift-only epoch (%.3fms) did not beat the cold bulk plan (%.3fms)\n",
			st.LastPlanMillis, st.FirstPlanMillis)
	}

	if failures > 0 {
		err := fmt.Errorf("load: %d verification failures", failures)
		if lc.check {
			return err
		}
		fmt.Println("load: WARNING:", err)
	} else {
		fmt.Println("load: ok — dirty-set accounting exact at every epoch")
	}
	return nil
}

func memberID(i int) string { return "m" + strconv.Itoa(i) }

// postDevices sends one batched register/update request.
func postDevices(client *http.Client, url string, reqs []serve.DeviceRequest) error {
	b, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("load: %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// runEpoch forces an epoch boundary and returns its result.
func runEpoch(client *http.Client, base string) (serve.EpochResult, error) {
	var res serve.EpochResult
	resp, err := client.Post(base+"/v1/epoch", "application/json", strings.NewReader("{}"))
	if err != nil {
		return res, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("load: epoch: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return res, json.Unmarshal(body, &res)
}

// fetchStats decodes /v1/stats.
func fetchStats(client *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("load: stats: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return st, json.Unmarshal(body, &st)
}

// scrapeMetrics fetches /metrics and parses the un-labelled series into
// a name -> integer-value map (fractional gauges are truncated).
func scrapeMetrics(client *http.Client, base string) (map[string]uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = uint64(f)
	}
	return out, sc.Err()
}
