package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// maxProxyBody bounds proxied bodies both ways, matching the worker's
// own request limit: a larger client body is refused with 400 and a
// larger worker response with 502, never relayed cut short.
const maxProxyBody = 64 << 20

// WorkerHeader names the response header the gateway stamps with the
// id of the worker that served a forwarded request. Tests and
// operators use it to observe placements and migrations.
const WorkerHeader = "X-Osmgate-Worker"

func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// Handler returns the gateway's HTTP API. The session surface is the
// worker API verbatim — a client speaks to the gateway exactly as it
// would to one osmserve — plus the fleet control plane:
//
//	POST /v1/workers        register a worker {id, addr, wire_addr}
//	GET  /v1/workers        registry snapshot
//	POST /v1/workers/drain  migrate a worker's sessions out {worker}
//	POST /v1/admin/migrate  move one session {session, to}
//	GET  /healthz           gateway liveness + fleet summary
//	GET  /metrics           Prometheus text
//
// A client PUT of a session snapshot is refused (405): placing a
// session on a worker is the gateway's job.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("POST /v1/workers", g.handleRegister)
	mux.HandleFunc("GET /v1/workers", g.handleWorkers)
	mux.HandleFunc("POST /v1/workers/drain", g.handleWorkerDrain)
	mux.HandleFunc("POST /v1/admin/migrate", g.handleAdminMigrate)
	mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	mux.HandleFunc("GET /v1/sessions", g.handleList)
	mux.HandleFunc("PUT /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "the gateway places sessions; create one with POST /v1/sessions")
	})
	mux.HandleFunc("/v1/sessions/{id}", g.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{op}", g.handleSession)
	return mux
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

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	byState := g.workersByState()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"workers":  byState[string(WorkerHealthy)],
		"sessions": g.RouteCount(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.Metrics.Render(w)
}

func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID       string `json:"id"`
		Addr     string `json:"addr"`
		WireAddr string `json:"wire_addr"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	wk, err := g.Register(req.ID, req.Addr, req.WireAddr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, wk)
}

func (g *Gateway) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": g.Workers()})
}

// handleWorkerDrain migrates every routed session off the worker and
// marks it gone. Synchronous: a draining worker POSTs here on SIGTERM
// and can shut down the moment the response arrives, because by then
// it hosts no sessions the gateway cares about.
func (g *Gateway) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	moved, err := g.DrainWorker(req.Worker)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "drained", "worker": req.Worker, "migrated": moved})
}

func (g *Gateway) handleAdminMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		To      string `json:"to,omitempty"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	from, to, err := g.Migrate(req.Session, req.To, "rebalance")
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, errNoRoute) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "migrated", "session": req.Session, "from": from, "to": to,
	})
}

// handleCreate places a new session: mint a globally-routable id, walk
// the ring's preference order, and hand the spec to the first healthy
// worker that admits it. Worker backpressure (429/503) falls through
// to the next candidate; only when every candidate refuses does the
// client see 429 with Retry-After.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	var req server.CreateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if req.ID != "" {
		writeError(w, http.StatusBadRequest, "the gateway assigns session ids; omit id")
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	id := g.mintID()
	req.ID = id
	placed, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	candidates := g.placementOrder(id)
	if len(candidates) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy workers registered")
		return
	}
	sawBackpressure := false
	for _, cand := range candidates {
		status, hdr, respBody, err := g.doMethod(http.MethodPost, cand.Addr+"/v1/sessions", "application/json", placed)
		if err != nil {
			g.Metrics.ProxyErrors.Add(1)
			g.logf("create %s on %s: %v", id, cand.ID, err)
			continue
		}
		g.Metrics.ProxiedHTTP.Add(1)
		switch status {
		case http.StatusCreated:
			rt := &route{worker: cand.ID}
			g.mu.Lock()
			g.routes[id] = rt
			g.mu.Unlock()
			g.Metrics.SessionsCreated.Add(1)
			g.logf("session %s placed on %s", id, cand.ID)
			relay(w, status, hdr, respBody, cand.ID)
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			sawBackpressure = true
			continue
		default:
			// A client error (bad spec the gateway's validation missed):
			// no other worker will decide differently.
			relay(w, status, hdr, respBody, cand.ID)
			return
		}
	}
	if sawBackpressure {
		g.Metrics.BackpressHTTP.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all workers at session capacity")
		return
	}
	writeError(w, http.StatusBadGateway, "no worker reachable for placement")
}

// handleList aggregates the session lists of every serving worker.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	var targets []Worker
	for _, wk := range g.workers {
		if wk.State == WorkerHealthy || wk.State == WorkerDraining {
			targets = append(targets, *wk)
		}
	}
	g.mu.Unlock()

	var all []server.Info
	for _, wk := range targets {
		status, _, body, err := g.doMethod(http.MethodGet, wk.Addr+"/v1/sessions", "", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var resp struct {
			Sessions []server.Info `json:"sessions"`
		}
		if json.Unmarshal(body, &resp) == nil {
			all = append(all, resp.Sessions...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": all})
}

// handleSession forwards one session-scoped request to the owning
// worker under the route's read lock — the migration barrier. A
// session with no live route may be parked; touching it resurrects it
// first (restore-on-touch).
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}

	if r.Method == http.MethodDelete && r.PathValue("op") == "" {
		g.handleDelete(w, r, id)
		return
	}

	// Two attempts: if the owning worker answers 404 the route was
	// stale (the worker idle-evicted, possibly parking, the session) —
	// drop it and try once more, which resurrects from the park. The
	// client never sees the intermediate 404.
	for attempt := 0; ; attempt++ {
		rt, err := g.ensureRoute(id)
		if err != nil {
			if errors.Is(err, errNoRoute) {
				writeError(w, http.StatusNotFound, "session "+id+" not found")
			} else {
				writeError(w, http.StatusBadGateway, err.Error())
			}
			return
		}
		status := g.forward(w, r, rt, id, body, attempt == 0)
		if status == http.StatusNotFound && attempt == 0 {
			g.dropRoute(id)
			continue
		}
		return
	}
}

// handleDelete evicts a session wherever it lives: on its worker (via
// forward), or parked on disk (consume the park).
func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request, id string) {
	if rt, ok := g.getRoute(id); ok {
		status := g.forward(w, r, rt, id, nil, true)
		switch {
		case status == http.StatusOK:
			g.dropRoute(id)
			g.Metrics.SessionsEvicted.Add(1)
			return
		case status == http.StatusNotFound:
			// Stale route — the worker already evicted it. Fall through
			// to the park so a parked copy is cleaned up too.
			g.dropRoute(id)
		default:
			return // relayed as-is (error or backpressure)
		}
	}
	if g.cfg.ParkDir != "" {
		if err := server.ConsumePark(g.cfg.ParkDir, id); err == nil {
			g.Metrics.SessionsEvicted.Add(1)
			writeJSON(w, http.StatusOK, map[string]string{"status": "evicted"})
			return
		}
	}
	writeError(w, http.StatusNotFound, "session "+id+" not found")
}

// forward proxies the incoming request to the session's worker under
// the route read lock and relays the response, returning the upstream
// status (0 when unreachable). With retryOn404 set, a 404 response is
// swallowed — not relayed — so the caller can drop the stale route
// and retry against a resurrected placement.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, rt *route, session string, body []byte, retryOn404 bool) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.dead || rt.worker == "" {
		if !retryOn404 {
			writeError(w, http.StatusNotFound, "session "+session+" not found")
		}
		return http.StatusNotFound
	}
	workerID := rt.worker
	wk, ok := g.worker(workerID)
	if !ok {
		writeError(w, http.StatusBadGateway, "session "+session+" routed to unknown worker "+workerID)
		return 0
	}
	url := wk.Addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	status, hdr, respBody, err := g.doMethod(r.Method, url, r.Header.Get("Content-Type"), body)
	if err != nil {
		g.Metrics.ProxyErrors.Add(1)
		writeError(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", workerID, err))
		return 0
	}
	g.Metrics.ProxiedHTTP.Add(1)
	if status == http.StatusTooManyRequests {
		g.Metrics.BackpressHTTP.Add(1)
		if hdr.Get("Retry-After") == "" {
			hdr.Set("Retry-After", "1")
		}
	}
	if status == http.StatusNotFound && retryOn404 {
		return status
	}
	relay(w, status, hdr, respBody, workerID)
	return status
}

// relay writes an upstream response to the client, stamping the
// serving worker.
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte, workerID string) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	for k, vs := range hdr {
		if strings.HasPrefix(k, "X-Osm-") {
			w.Header()[k] = vs
		}
	}
	w.Header().Set(WorkerHeader, workerID)
	w.WriteHeader(status)
	w.Write(body)
}

// doMethod issues one bounded request with an optional body. A
// response body past the gateway's limit is an error, not a short
// read.
func (g *Gateway) doMethod(method, url, contentType string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	ctx, cancel := timeoutCtx(g.cfg.ProxyTimeout)
	defer cancel()
	resp, err := g.hc.Do(req.WithContext(ctx))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, g.maxBody+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(respBody)) > g.maxBody {
		return 0, nil, nil, fmt.Errorf("%s %s: response body exceeds the gateway's %d-byte limit", method, url, g.maxBody)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}
