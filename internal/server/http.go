package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/runner"
)

// maxBodyBytes bounds request bodies (session specs and snapshot
// uploads; a 1 MiB RAM image zero-compresses far below this).
const maxBodyBytes = 64 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/sessions                create (JSON spec)
//	GET    /v1/sessions                list
//	GET    /v1/sessions/{id}           info
//	PUT    /v1/sessions/{id}           place from a snapshot under id
//	DELETE /v1/sessions/{id}           evict
//	POST   /v1/sessions/{id}/step      step N cycles under a deadline
//	GET    /v1/sessions/{id}/registers peek architectural registers
//	GET    /v1/sessions/{id}/mem       peek memory (?addr=&len=)
//	GET    /v1/sessions/{id}/snapshot  download state (snap wire format)
//	POST   /v1/sessions/{id}/restore   upload state
//	GET    /v1/sessions/{id}/trace     NDJSON transition stream (?since=)
//	GET    /healthz                    liveness and drain state
//	GET    /metrics                    Prometheus text
//	/debug/pprof/*                     runtime profiles
//
// Every route runs behind per-request panic isolation: a panicking
// handler yields a 500 and poisons the session it was operating on,
// never the process.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", m.withSession(m.handleInfo))
	mux.HandleFunc("PUT /v1/sessions/{id}", m.handlePlace)
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.handleEvict)
	mux.HandleFunc("POST /v1/sessions/{id}/step", m.withSession(m.handleStep))
	mux.HandleFunc("GET /v1/sessions/{id}/registers", m.withSession(m.handleRegisters))
	mux.HandleFunc("GET /v1/sessions/{id}/mem", m.withSession(m.handleMem))
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", m.withSession(m.handleSnapshot))
	mux.HandleFunc("POST /v1/sessions/{id}/restore", m.withSession(m.handleRestore))
	mux.HandleFunc("GET /v1/sessions/{id}/trace", m.withSession(m.handleTrace))
	mux.HandleFunc("GET /v1/sessions/{id}/invariants", m.withSession(m.handleInvariants))
	mux.HandleFunc("POST /v1/admin/drain", m.handleAdminDrain)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return m.isolate(mux)
}

// isolate is the outermost middleware: request accounting plus panic
// isolation. A panic is converted into a 500 (when the response has
// not started) and counted; the process and every other session keep
// serving.
func (m *Manager) isolate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.Metrics.HTTPRequests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		defer func() {
			if p := recover(); p != nil {
				m.Metrics.Panics.Add(1)
				m.logf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withSession resolves {id}, poisons the session if the inner handler
// panics (the simulator may be mid-mutation), and re-panics so the
// isolation middleware writes the 500.
func (m *Manager) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		defer func() {
			if p := recover(); p != nil {
				s.Poison(fmt.Errorf("request panic: %v", p))
				panic(p)
			}
		}()
		h(w, r, s)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeAPIError maps manager errors onto HTTP statuses.
func writeAPIError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBackpressure), errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrConflict):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if m.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": m.LiveCount()})
}

func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m.Metrics.Render(w)
}

// CreateRequest is the POST /v1/sessions body: a runner.Spec plus
// session options. The image field rides as standard JSON base64.
type CreateRequest struct {
	runner.Spec
	// ID, when set, names the session instead of letting the server
	// assign an id — how the gateway places sessions under globally
	// routable ids. A duplicate or invalid id is a 409.
	ID string `json:"id,omitempty"`
	// TraceLimit overrides the recorder retention (nil = server
	// default, explicit 0 = unlimited).
	TraceLimit *int `json:"trace_limit,omitempty"`
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	traceLimit := m.cfg.TraceLimit
	if req.TraceLimit != nil {
		traceLimit = *req.TraceLimit
	}
	if traceLimit < 0 {
		writeError(w, http.StatusBadRequest, "trace_limit must be >= 0")
		return
	}
	s, err := m.CreateWithID(req.ID, req.Spec, traceLimit)
	if err != nil {
		if errors.Is(err, runner.ErrNotSteppable) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, m.Info(s))
}

// handlePlace enters a session from an uploaded session snapshot
// under the path's id (201 with its info), all or nothing: a refused
// snapshot, or an id already resident, is a 409 and enters nothing.
func (m *Manager) handlePlace(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading snapshot body: "+err.Error())
		return
	}
	s, err := m.CreateFromSnapshot(r.PathValue("id"), data)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, m.Info(s))
}

// handleAdminDrain stops session admissions and reports the resident
// session ids, so a gateway can drive migrate-out before this worker
// shuts down. Existing sessions keep serving.
func (m *Manager) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	ids := m.AdminDrain()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "draining",
		"sessions": ids,
	})
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": m.List()})
}

func (m *Manager) handleInfo(w http.ResponseWriter, r *http.Request, s *Session) {
	writeJSON(w, http.StatusOK, m.Info(s))
}

func (m *Manager) handleEvict(w http.ResponseWriter, r *http.Request) {
	if err := m.Evict(r.PathValue("id")); err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "evicted"})
}

// StepRequest is the POST step body.
type StepRequest struct {
	// Cycles is the number of cycles to advance (required; capped by
	// the server).
	Cycles uint64 `json:"cycles"`
	// DeadlineMS bounds the request's wall time (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (m *Manager) handleStep(w http.ResponseWriter, r *http.Request, s *Session) {
	var req StepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	res, err := m.Step(s, req.Cycles, time.Duration(req.DeadlineMS)*time.Millisecond)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (m *Manager) handleRegisters(w http.ResponseWriter, r *http.Request, s *Session) {
	cycle, regs := m.Registers(s)
	writeJSON(w, http.StatusOK, map[string]any{
		"cycle":     cycle,
		"registers": regs,
	})
}

// handleInvariants is the debug endpoint over the runtime OSM
// invariant checker: a one-shot structural check (token conservation,
// binding consistency) of the session's model at its current cycle.
func (m *Manager) handleInvariants(w http.ResponseWriter, r *http.Request, s *Session) {
	cycle, vs := m.CheckInvariants(s)
	writeJSON(w, http.StatusOK, map[string]any{
		"cycle":      cycle,
		"clean":      len(vs) == 0,
		"violations": vs,
	})
}

func (m *Manager) handleMem(w http.ResponseWriter, r *http.Request, s *Session) {
	q := r.URL.Query()
	addr, err := strconv.ParseUint(q.Get("addr"), 0, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid addr: "+q.Get("addr"))
		return
	}
	n, err := strconv.ParseUint(q.Get("len"), 0, 32)
	if err != nil || n == 0 {
		writeError(w, http.StatusBadRequest, "invalid len: "+q.Get("len"))
		return
	}
	data, err := m.ReadMem(s, uint32(addr), uint32(n))
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"addr": addr,
		"len":  n,
		"data": base64.StdEncoding.EncodeToString(data),
	})
}

func (m *Manager) handleSnapshot(w http.ResponseWriter, r *http.Request, s *Session) {
	data, cycle, err := m.Snapshot(s)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Osm-Cycle", strconv.FormatUint(cycle, 10))
	w.Header().Set("X-Osm-Target", s.Spec.Target)
	w.Write(data)
}

func (m *Manager) handleRestore(w http.ResponseWriter, r *http.Request, s *Session) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading snapshot body: "+err.Error())
		return
	}
	cycle, err := m.Restore(s, data)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "restored",
		"cycle":  cycle,
		"state":  StatePaused,
	})
}

// handleTrace streams the retained transition history as NDJSON, one
// osm.Event per line, from the session's live Recorder ring buffer.
// The totals ride as headers so a consumer can detect ring gaps
// (X-Osm-Trace-Total vs lines received) and compare runs cheaply
// (X-Osm-Trace-Checksum covers the whole run, not just the window).
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request, s *Session) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid since: "+v)
			return
		}
		since = n
	}
	evs, total, sum := m.TraceEvents(s, since)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Osm-Trace-Total", strconv.FormatUint(total, 10))
	w.Header().Set("X-Osm-Trace-Checksum", fmt.Sprintf("%016x", sum))
	enc := json.NewEncoder(w)
	for i := range evs {
		enc.Encode(&evs[i])
	}
}
