package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"braidio/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(cfg)
	ts := httptest.NewServer((&Server{Engine: e}).Handler())
	t.Cleanup(ts.Close)
	return ts, e
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// TestHTTPRoundTrip drives the full wire path: batch register, epoch,
// plan fetch, stats, update, second epoch, metrics scrape.
func TestHTTPRoundTrip(t *testing.T) {
	rec := &obs.Recorder{}
	ts, _ := newTestServer(t, testConfig(rec))

	// Batch register 10 members in one request.
	batch := make([]DeviceRequest, 10)
	for i := range batch {
		batch[i] = DeviceRequest{ID: fmt.Sprintf("d%d", i), EnergyJ: 1, DistanceM: 0.5 + 0.3*float64(i)}
	}
	resp, body := postJSON(t, ts.URL+"/v1/register", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/epoch", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: %d %s", resp.StatusCode, body)
	}
	var res EpochResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("epoch body: %v", err)
	}
	if res.Planned != 10 {
		t.Fatalf("planned %d, want 10", res.Planned)
	}

	// Fetch one plan.
	r2, err := http.Get(ts.URL + "/v1/plan?id=d3")
	if err != nil {
		t.Fatal(err)
	}
	var plan Plan
	if err := json.NewDecoder(r2.Body).Decode(&plan); err != nil {
		t.Fatalf("plan body: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || len(plan.Fractions) == 0 {
		t.Fatalf("plan: status %d, %d fractions", r2.StatusCode, len(plan.Fractions))
	}

	// Unknown member is a 404.
	r3, err := http.Get(ts.URL + "/v1/plan?id=nobody")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown plan: %d, want 404", r3.StatusCode)
	}

	// Single-object update, then a second epoch re-plans exactly it.
	resp, body = postJSON(t, ts.URL+"/v1/update", DeviceRequest{ID: "d3", EnergyJ: 0.4, DistanceM: 0.5 + 0.9})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/epoch", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch 2: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Planned != 1 || res.Clean != 9 {
		t.Fatalf("epoch 2: planned %d clean %d, want 1/9", res.Planned, res.Clean)
	}

	// Stats and metrics.
	r4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r4.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if st.Members != 10 || st.Epoch != 2 {
		t.Fatalf("stats: %+v", st)
	}

	r5, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r5.Body)
	r5.Body.Close()
	for _, want := range []string{
		"braidio_serve_registers_total 10",
		"braidio_serve_updates_total 1",
		`braidio_serve_dirty_total{reason="register"} 10`,
		`braidio_serve_dirty_total{reason="ratio"} 1`,
		`braidio_serve_dirty_total{reason="hub"} 0`,
		`braidio_serve_link_rows_total{source="characterized"} 10`,
		`braidio_serve_link_rows_total{source="rebuilt"} 1`, // d3's update kept its distance
		"braidio_serve_epochs_total 2",
		"braidio_serve_plans_total 11",
		"braidio_serve_clean_total 9",
		"braidio_serve_members 10",
		"braidio_serve_queue_depth 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHTTPSheds fills the queue over the wire and checks 503 +
// Retry-After on the overflow.
func TestHTTPSheds(t *testing.T) {
	cfg := testConfig(nil)
	cfg.QueueCap = 2
	ts, _ := newTestServer(t, cfg)

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: fmt.Sprintf("d%d", i), EnergyJ: 1, DistanceM: 1})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("register %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: "overflow", EnergyJ: 1, DistanceM: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

// TestHTTPValidation checks malformed and invalid bodies are 400s and
// method misuse is 405.
func TestHTTPValidation(t *testing.T) {
	ts, _ := newTestServer(t, testConfig(nil))

	resp, err := http.Post(ts.URL+"/v1/register", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: "x", EnergyJ: -1, DistanceM: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative energy: %d, want 400", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/hub", map[string]float64{"energy_j": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero hub energy: %d, want 400", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/register")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET register: %d, want 405", r.StatusCode)
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", r.StatusCode)
	}
}

// TestRetryAfterSeconds pins the derived backpressure hint: one epoch
// for any backlog, plus one per additional queue-capacity of depth,
// scaled by the epoch interval.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth, cap int
		interval   time.Duration
		want       int
	}{
		{0, 100, 0, 1},                      // no interval: fixed hint
		{0, 100, -time.Second, 1},           // negative interval: fixed hint
		{0, 100, 2 * time.Second, 2},        // one epoch to drain
		{100, 100, 2 * time.Second, 4},      // a full extra queue: two epochs
		{250, 100, 2 * time.Second, 6},      // deep backlog: three epochs
		{0, 0, 2 * time.Second, 2},          // unbounded cap: one epoch
		{0, 100, 100 * time.Millisecond, 1}, // sub-second rounds up
		{0, 100, 1500 * time.Millisecond, 2},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.cap, c.interval); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d", c.depth, c.cap, c.interval, got, c.want)
		}
	}
}

// TestHTTPShedRetryAfterDerived checks the header on the wire carries
// the drain-rate-derived value, not the old hardcoded 1.
func TestHTTPShedRetryAfterDerived(t *testing.T) {
	cfg := testConfig(nil)
	cfg.QueueCap = 2
	e := NewEngine(cfg)
	ts := httptest.NewServer((&Server{Engine: e, EpochInterval: 3 * time.Second}).Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: fmt.Sprintf("d%d", i), EnergyJ: 1, DistanceM: 1})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("register %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: "overflow", EnergyJ: 1, DistanceM: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow: %d, want 503", resp.StatusCode)
	}
	// Depth 2 at cap 2 is a full queue: 2 epochs x 3s.
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want \"6\"", got)
	}
}

// TestHTTPBodyLimit checks oversized POST bodies are rejected with 413
// instead of being buffered whole.
func TestHTTPBodyLimit(t *testing.T) {
	e := NewEngine(testConfig(nil))
	ts := httptest.NewServer((&Server{Engine: e, MaxBodyBytes: 256}).Handler())
	t.Cleanup(ts.Close)

	big := make([]DeviceRequest, 64)
	for i := range big {
		big[i] = DeviceRequest{ID: fmt.Sprintf("pad-%032d", i), EnergyJ: 1, DistanceM: 1}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/register", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	// A small request on the same server still goes through.
	resp, body := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: "ok", EnergyJ: 1, DistanceM: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small body: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPJournalBroken checks the durability surface over the wire: a
// broken journal under fail-stop turns /healthz unhealthy, sheds
// admissions with 503 + Retry-After, and shows up in /v1/stats.
func TestHTTPJournalBroken(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(rec)
	cfg.JournalFailStop = true
	ts, e := newTestServer(t, cfg)
	e.attachJournal(brokenJournal(rec))

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with broken journal: %d, want 503", r.StatusCode)
	}
	if !strings.Contains(string(hb), "journal broken") {
		t.Errorf("healthz body %q does not name the journal", hb)
	}

	resp, body := postJSON(t, ts.URL+"/v1/register", DeviceRequest{ID: "x", EnergyJ: 1, DistanceM: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register with broken journal: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("fail-stop shed missing Retry-After")
	}

	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.JournalError == "" {
		t.Error("stats JournalError empty with broken journal")
	}
}
