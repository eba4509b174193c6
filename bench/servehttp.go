package main

// The serve-http workload is the operator-visible path from an update
// to a readable plan: JSON, admission, the epoch ticker and shard locks,
// through a braidio-serve daemon running as its own process. After
// registering the membership, an open-loop sender POSTs a batch of
// updates every 10 ms on one connection and a paced reader issues one
// GET per millisecond on a second connection: mostly plan reads for
// random members, the rest polling the oldest traced drift update until
// its plan shows the new ratio. The plan kernels do little of this
// work, so a PHY or solver speedup should leave it flat.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"braidio/internal/rng"
	"braidio/internal/serve"
	"braidio/internal/units"
)

// Open-loop shape: one batch of httpBatch updates every httpTick (5,000
// updates/s), one update in httpDriftEvery drifting; one GET per
// httpReadTick, one in httpPollEvery of them polling visibility.
const (
	httpTick        = 10 * time.Millisecond
	httpBatch       = 50
	httpDriftEvery  = 10
	httpReadTick    = time.Millisecond
	httpPollEvery   = 4
	httpStatsEvery  = 100 // reader ticks between /v1/stats polls
	httpVisibleMax  = 5 * time.Second
	httpRegisterMax = 1000 // members per registration request
)

// daemon is a running braidio-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon launches braidio-serve on a free loopback port and waits
// for it to report its address.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-epoch", "100ms", "-workers", "2", "-shards", "2",
		"-queue-cap", "262144")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, ",")
				select {
				case addr <- a:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("braidio-serve exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("braidio-serve did not report its address within 10 s")
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within 10 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal braidio-serve: %w", err)
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("braidio-serve did not exit within 10 s of SIGTERM")
	}
}

// oneConn returns a client that keeps at most one connection open.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   httpVisibleMax,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// post sends one JSON body and returns the status code.
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// getJSON decodes a GET response into v and returns the status code.
func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// scrape reads the daemon's un-labelled /metrics series.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// setupServeHTTP starts a daemon, waits for /healthz, registers the
// membership over the sender connection and waits until every member
// is planned.
func setupServeHTTP(bin string, sender *http.Client, energies, distances []float64) (*daemon, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if code, err := getJSON(sender, d.base+"/healthz", nil); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("/healthz not ok within 10 s"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	n := len(energies)
	for lo := 0; lo < n; lo += httpRegisterMax {
		hi := min(lo+httpRegisterMax, n)
		reqs := make([]serve.DeviceRequest, 0, hi-lo)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, serve.DeviceRequest{ID: memberID(i), EnergyJ: energies[i], DistanceM: distances[i]})
		}
		body, _ := json.Marshal(reqs)
		if code, err := post(sender, d.base+"/v1/register", body); err != nil || code != http.StatusAccepted {
			return fail(fmt.Errorf("register: status %d (err %v)", code, err))
		}
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		m, err := scrape(sender, d.base)
		if err != nil {
			return fail(err)
		}
		if m["braidio_serve_plans_total"] >= float64(n) {
			if m["braidio_serve_plans_total"] != float64(n) {
				return fail(fmt.Errorf("registration planned %v members, want %d", m["braidio_serve_plans_total"], n))
			}
			return d, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("only %v of %d members planned within 60 s", m["braidio_serve_plans_total"], n))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tracedUpdate is a drifting update the reader waits to see: the plan
// ratio it must show, when the update was due to be sent, and (in a
// traced batch) the span that stays open until it is visible.
type tracedUpdate struct {
	id     string
	ratio  float64
	due    time.Time
	traced bool
	span   int
}

// httpRun collects the measured phase's samples.
type httpRun struct {
	mu        sync.Mutex
	pending   []tracedUpdate
	visible   dist // untraced batches' visibility, ms
	visibleTr dist // traced batches' visibility, ms
	ack, lag  dist
	read      dist
	sheds     int
	acked     int // updates acknowledged with 202
	batches   int
	queueMax  float64
	out       *outcome
}

// runServeHTTP is the serve-http workload.
func runServeHTTP(cfg *config, tr *tracer) (*outcome, error) {
	n := 100_000
	if cfg.short {
		n = 2000
	}
	if _, err := os.Stat(cfg.serveBin); err != nil {
		return nil, fmt.Errorf("serve-http needs the braidio-serve binary bench/run.sh builds: %w", err)
	}
	energies, distances := members(cfg.seed, n)
	sender, reader := oneConn(), oneConn()
	out := &outcome{}
	var d *daemon
	err := cfg.repeatSetup(out, func() (err error) {
		d, err = setupServeHTTP(cfg.serveBin, sender, energies, distances)
		return err
	}, func() error {
		sender.CloseIdleConnections()
		return d.stop()
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	stopMem, err := watchMemory(out, pid)
	if err != nil {
		return nil, err
	}

	r := &httpRun{out: out}
	st := rng.New(cfg.seed ^ 0x68747470)
	cpu0, err := procCPUTime(pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.send(traceChooser(tr, cfg.seed), rng.New(cfg.seed^0x6a6974), sender, d.base, energies, distances, start, end)
	}()
	go func() {
		defer wg.Done()
		r.readLoop(tr, reader, d.base, n, st, start, end)
	}()
	wg.Wait()
	cpu1, err := procCPUTime(pid)
	if err != nil {
		return nil, err
	}
	if err := stopMem(); err != nil {
		return nil, err
	}
	r.drainPending(tr, reader, d.base)

	// Every acknowledged update must be applied: wait for the queue to
	// drain through an epoch, then compare the daemon's counter.
	var stats serve.Stats
	if _, err := getJSON(reader, d.base+"/v1/stats", &stats); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		var now serve.Stats
		if _, err := getJSON(reader, d.base+"/v1/stats", &now); err != nil {
			return nil, err
		}
		if now.QueueDepth == 0 && now.Epoch > stats.Epoch {
			stats = now
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	m, err := scrape(reader, d.base)
	if err != nil {
		return nil, err
	}
	out.check(m["braidio_serve_updates_total"] == float64(r.acked),
		"serve-http: daemon applied %v updates, %d acknowledged", m["braidio_serve_updates_total"], r.acked)
	out.ops, out.traced = r.visible, r.visibleTr
	out.cpu, out.cpuOps = cpu1-cpu0, r.batches

	out.add("http.visible_p50_ms", r.visible.median(), "ms")
	out.add("http.visible_p99_ms", r.visible.quantile(0.99), "ms")
	out.add("http.read_p50_ms", r.read.median(), "ms")
	out.add("http.read_p99_ms", r.read.quantile(0.99), "ms")
	fmt.Printf("  plan reads: %s\n", r.read.summary("ms"))
	if !cfg.trace {
		return out, nil
	}
	out.add("http.update_ack_p50_ms", r.ack.median(), "ms")
	out.add("http.update_ack_p99_ms", r.ack.quantile(0.99), "ms")
	out.add("http.apply_p50_ms", stats.ApplyP50Millis, "ms")
	out.add("http.plan_p50_ms", stats.PlanP50Millis, "ms")
	out.add("http.queue_depth_max", r.queueMax, "count")
	out.add("http.sheds", float64(r.sheds), "count")
	out.add("http.gen_lag_p99_ms", r.lag.quantile(0.99), "ms")

	// In-process probes of the two engine calls the HTTP handlers make,
	// on an engine holding the same membership.
	eng := serve.NewEngine(serveConfig(n, nil))
	for i := range energies {
		if err := eng.Register(memberID(i), units.Joule(energies[i]), units.Meter(distances[i])); err != nil {
			return nil, err
		}
	}
	if _, err := eng.RunEpoch(); err != nil {
		return nil, err
	}
	sp := tr.begin("probe.serve.admit", 0, -1)
	var admit dist
	k := min(n, 2048)
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if err := eng.Update(memberID(i), units.Joule(energies[i]), units.Meter(distances[i])); err != nil {
				return nil, err
			}
		}
		admit = append(admit, float64(time.Since(t0))/float64(k))
		if _, err := eng.RunEpoch(); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	out.add("serve.admit_ns", admit.median(), "ns")
	out.add("serve.plan_for_ns", planForProbe(tr, cfg.probeTime, eng, n), "ns")

	out.layer = runProbes(tr, cfg.probeTime, serveProbeInputs(energies, distances))
	out.layer = append(out.layer, row{"linkcache.hit_ratio", 0, "ratio"})
	return out, nil
}

// send is the open-loop sender: batch k is due at a seeded uniform
// instant in [k, k+1)·httpTick after start (so due times sample every
// phase of the daemon's epoch tick alike, whatever the two clocks'
// offset) and is timed from then, so a stall delays every later
// batch's clock.
// Members [0, n/2) drift (energy halved, restored on their next turn),
// [n/2, n) jitter by ±1% around their registered energy, inside
// tolerance, so the two sets never race.
func (r *httpRun) send(pick func() *tracer, jitter *rng.Stream, c *http.Client, base string, energies, distances []float64, start, end time.Time) {
	n := len(energies)
	driftNext, jitterNext := 0, n/2
	halved := make([]bool, n/2)
	for k := 0; ; k++ {
		due := start.Add(time.Duration((float64(k) + jitter.Float64()) * float64(httpTick)))
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t := pick()
		traced := t != nil
		reqs := make([]serve.DeviceRequest, 0, httpBatch)
		var tu tracedUpdate
		for j := 0; j < httpBatch; j++ {
			if j%httpDriftEvery == 0 {
				i := driftNext % (n / 2)
				driftNext++
				halved[i] = !halved[i]
				e := energies[i]
				if halved[i] {
					e /= 2
				}
				reqs = append(reqs, serve.DeviceRequest{ID: memberID(i), EnergyJ: e, DistanceM: distances[i]})
				if j == 0 {
					tu = tracedUpdate{id: memberID(i), ratio: serveHubJ / e, due: due}
				}
				continue
			}
			i := n/2 + (jitterNext-n/2)%(n-n/2)
			jitterNext++
			f := serveJitterFactor
			if jitterNext%2 == 0 {
				f = 2 - serveJitterFactor
			}
			reqs = append(reqs, serve.DeviceRequest{ID: memberID(i), EnergyJ: energies[i] * f, DistanceM: distances[i]})
		}
		body, _ := json.Marshal(reqs)
		sent := time.Now()
		root := t.begin("http.update_visible", 0, k)
		sp := t.begin("http.post_update", root, k)
		code, err := post(c, base+"/v1/update", body)
		t.end(sp)
		acked := time.Now()
		r.mu.Lock()
		r.batches++
		r.lag = append(r.lag, ms(sent.Sub(due)))
		r.ack = append(r.ack, ms(acked.Sub(due)))
		if err == nil && code == http.StatusAccepted {
			r.acked += len(reqs)
			tu.traced, tu.span = traced, root
			r.pending = append(r.pending, tu)
		} else {
			if code == http.StatusServiceUnavailable {
				r.sheds++
			}
			t.end(root)
		}
		r.out.check(err == nil && code == http.StatusAccepted, "serve-http: update batch %d: status %d (err %v)", k, code, err)
		r.mu.Unlock()
	}
}

// readLoop is the paced reader: one GET per httpReadTick on its own
// connection. Every httpPollEvery-th tick polls the oldest pending
// traced update (and, once it is visible, the next ones straight
// away); every httpStatsEvery-th tick polls /v1/stats for the queue
// depth; the rest read a random member's plan.
func (r *httpRun) readLoop(tr *tracer, c *http.Client, base string, n int, st *rng.Stream, start, end time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * httpReadTick)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		switch {
		case k%httpStatsEvery == 0:
			var s serve.Stats
			code, err := getJSON(c, base+"/v1/stats", &s)
			r.mu.Lock()
			r.out.check(err == nil && code == http.StatusOK, "serve-http: stats: status %d (err %v)", code, err)
			r.queueMax = math.Max(r.queueMax, float64(s.QueueDepth))
			r.mu.Unlock()
		case k%httpPollEvery == 0:
			r.pollPending(tr, c, base)
		default:
			id := memberID(st.Intn(n))
			var p serve.Plan
			t0 := time.Now()
			code, err := getJSON(c, base+"/v1/plan?id="+id, &p)
			rtt := ms(time.Since(t0))
			r.mu.Lock()
			r.read = append(r.read, rtt)
			r.out.check(err == nil && code == http.StatusOK && validPlan(&p), "serve-http: plan %s: status %d (err %v)", id, code, err)
			r.mu.Unlock()
		}
	}
}

// validPlan checks a plan's fractions form a distribution over its
// modes.
func validPlan(p *serve.Plan) bool {
	if len(p.Modes) == 0 || len(p.Modes) != len(p.Fractions) {
		return false
	}
	sum := 0.0
	for _, f := range p.Fractions {
		sum += f
	}
	return math.Abs(sum-1) < 1e-6
}

// pollPending polls the oldest pending traced update, recording its
// visibility latency once its plan shows the new ratio and moving on
// to the next while they are visible. An update still invisible 5 s
// after it was due counts as failed.
func (r *httpRun) pollPending(tr *tracer, c *http.Client, base string) {
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return
		}
		tu := r.pending[0]
		r.mu.Unlock()
		var p serve.Plan
		code, err := getJSON(c, base+"/v1/plan?id="+tu.id, &p)
		now := time.Now()
		visible := err == nil && code == http.StatusOK && p.Ratio == tu.ratio
		expired := now.Sub(tu.due) > httpVisibleMax
		if !visible && !expired {
			return
		}
		r.mu.Lock()
		r.pending = r.pending[1:]
		r.out.check(visible, "serve-http: update to %s not visible within %v", tu.id, httpVisibleMax)
		if visible {
			if tu.traced {
				r.visibleTr = append(r.visibleTr, ms(now.Sub(tu.due)))
			} else {
				r.visible = append(r.visible, ms(now.Sub(tu.due)))
			}
		}
		r.mu.Unlock()
		if tu.traced {
			tr.end(tu.span)
		}
	}
}

// drainPending waits for the updates still in flight when the measured
// phase ends.
func (r *httpRun) drainPending(tr *tracer, c *http.Client, base string) {
	for {
		r.mu.Lock()
		left := len(r.pending)
		r.mu.Unlock()
		if left == 0 {
			return
		}
		r.pollPending(tr, c, base)
		time.Sleep(httpReadTick)
	}
}
