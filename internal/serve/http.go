// HTTP/JSON surface of the planning daemon. Handlers translate wire
// requests into engine admissions and reads; they hold no state of
// their own, so the daemon's lifecycle (epoch ticker, graceful
// shutdown) stays in cmd/braidio-serve.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"braidio/internal/units"
)

// Server exposes an Engine over HTTP. /metrics exports the recorder
// the engine counts into (its Config().Rec), when it has one.
type Server struct {
	Engine *Engine
	// EpochInterval is the daemon's epoch ticker period; shed responses
	// derive their Retry-After from it and the queue depth, so
	// backpressure scales with the actual drain rate. Zero falls back to
	// a one-second hint.
	EpochInterval time.Duration
	// MaxBodyBytes caps POST request bodies (http.MaxBytesReader; 413 on
	// overflow). Zero selects 64 MiB — comfortably above the load
	// generator's largest batches.
	MaxBodyBytes int64
}

// defaultMaxBodyBytes is the POST body cap when MaxBodyBytes is zero.
const defaultMaxBodyBytes = 64 << 20

// DeviceRequest is the wire shape for register and update: who, how
// much battery is left, and how far the link currently reaches.
type DeviceRequest struct {
	ID        string  `json:"id"`
	EnergyJ   float64 `json:"energy_j"`
	DistanceM float64 `json:"distance_m"`
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.device(s.Engine.Register))
	mux.HandleFunc("/v1/update", s.device(s.Engine.Update))
	mux.HandleFunc("/v1/hub", s.hub)
	mux.HandleFunc("/v1/epoch", s.epoch)
	mux.HandleFunc("/v1/plan", s.plan)
	mux.HandleFunc("/v1/stats", s.stats)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/healthz", s.healthz)
	return mux
}

// healthz reports liveness — and durability: a broken journal turns the
// daemon unhealthy (503) so orchestrators restart it into recovery
// instead of letting it admit operations it cannot replay.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if err := s.Engine.JournalErr(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "journal broken", "error": err.Error(),
		})
		return
	}
	io.WriteString(w, "ok\n")
}

// writeJSON writes v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds derives a shed response's Retry-After from how long
// the backlog will take to drain: a full queue is at least one epoch
// behind, and every additional queue-capacity's worth of depth is
// another epoch. A non-positive interval (manual epochs only) falls
// back to a one-second hint.
func retryAfterSeconds(depth, queueCap int, interval time.Duration) int {
	if interval <= 0 {
		return 1
	}
	epochs := 1
	if queueCap > 0 {
		epochs += depth / queueCap
	}
	secs := int(math.Ceil(float64(epochs) * interval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeErr maps engine errors onto status codes: a shed — queue full or
// journal broken under fail-stop — is 503 with a drain-rate-derived
// Retry-After; anything else from admission is the caller's fault. A
// body over MaxBodyBytes is 413.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrJournalBroken):
		code = http.StatusServiceUnavailable
		st := s.Engine.Stats()
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(st.QueueDepth, st.QueueCap, s.EpochInterval)))
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// device builds the handler shared by register and update. The body is
// one DeviceRequest or an array of them (the load generator batches
// thousands per request); admission is all-or-error in body order.
func (s *Server) device(admit func(string, units.Joule, units.Meter) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		limit := s.MaxBodyBytes
		if limit <= 0 {
			limit = defaultMaxBodyBytes
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			s.writeErr(w, err)
			return
		}
		var reqs []DeviceRequest
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			err = json.Unmarshal(body, &reqs)
		} else {
			reqs = make([]DeviceRequest, 1)
			err = json.Unmarshal(body, &reqs[0])
		}
		if err != nil {
			s.writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
			return
		}
		for i, q := range reqs {
			if err := admit(q.ID, units.Joule(q.EnergyJ), units.Meter(q.DistanceM)); err != nil {
				s.writeErr(w, fmt.Errorf("entry %d: %w", i, err))
				return
			}
		}
		writeJSON(w, http.StatusAccepted, map[string]int{"admitted": len(reqs)})
	}
}

// hub admits a hub-side budget change.
func (s *Server) hub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var q struct {
		EnergyJ float64 `json:"energy_j"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&q); err != nil {
		s.writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if err := s.Engine.SetHubEnergy(units.Joule(q.EnergyJ)); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"admitted": 1})
}

// epoch forces an epoch boundary now — how tests and the load
// generator step the batcher deterministically instead of waiting out
// the ticker.
func (s *Server) epoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	res, err := s.Engine.RunEpoch()
	if err != nil {
		// Plans that did solve are committed; report both.
		writeJSON(w, http.StatusConflict, map[string]any{"result": res, "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// plan serves a member's current plan.
func (s *Server) plan(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeErr(w, errors.New("serve: missing id parameter"))
		return
	}
	p, ok := s.Engine.PlanFor(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no plan for " + id})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// stats serves the engine's instantaneous state.
func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Engine.Stats())
}

// metrics serves Prometheus text exposition: the recorder's snapshot
// plus the serve-local gauges (membership and queue depth) that only
// the engine knows.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var buf strings.Builder
	if rec := s.Engine.Config().Rec; rec != nil {
		snap := rec.Snapshot()
		snap.WritePrometheus(&buf)
	}
	st := s.Engine.Stats()
	fmt.Fprintf(&buf, "# TYPE braidio_serve_members gauge\nbraidio_serve_members %d\n", st.Members)
	fmt.Fprintf(&buf, "# TYPE braidio_serve_shards gauge\nbraidio_serve_shards %d\n", st.Shards)
	fmt.Fprintf(&buf, "# TYPE braidio_serve_queue_depth gauge\nbraidio_serve_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(&buf, "# TYPE braidio_serve_epoch gauge\nbraidio_serve_epoch %d\n", st.Epoch)
	io.WriteString(w, buf.String())
}
