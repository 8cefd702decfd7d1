// Package gate is the session fabric's control plane: a gateway that
// consistent-hashes session ids over a registered fleet of osmserve
// workers, proxies both protocol planes (HTTP/JSON and the binary
// wire protocol), propagates worker backpressure to clients, and
// performs live session migration — snapshot on the source worker,
// place it on the target, atomically repoint the route — for worker
// drain, manual rebalance, and resurrection of parked (idle-evicted)
// sessions. It is the library behind cmd/osmgate.
//
// The gateway holds no simulation state. Its per-session footprint is
// one route entry: the owning worker. A session snapshot names the
// session's spec, so the snapshot alone places the session on another
// worker. Every session-scoped request holds the route's read lock for
// the duration of the forward; a migration takes the write lock, so
// the snapshot→place→repoint sequence observes no concurrent traffic
// and a client request issued mid-migration simply lands on the new
// worker — no cycle is lost and none is run twice.
package gate

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// WorkerState is a registered worker's membership state.
type WorkerState string

// The worker lifecycle. Only healthy workers receive new placements;
// healthy and draining workers still serve their resident sessions.
const (
	// WorkerJoining is registered but not yet health-verified.
	WorkerJoining WorkerState = "joining"
	// WorkerHealthy is in the ring and receiving placements.
	WorkerHealthy WorkerState = "healthy"
	// WorkerUnhealthy failed consecutive probes and left the ring; a
	// later successful probe returns it to healthy.
	WorkerUnhealthy WorkerState = "unhealthy"
	// WorkerDraining is migrating its sessions out; out of the ring.
	WorkerDraining WorkerState = "draining"
	// WorkerGone has drained or deregistered.
	WorkerGone WorkerState = "gone"
)

// workerStates lists every state, for deterministic metrics output.
var workerStates = []WorkerState{WorkerJoining, WorkerHealthy, WorkerUnhealthy, WorkerDraining, WorkerGone}

// Worker is one registered osmserve instance.
type Worker struct {
	ID string `json:"id"`
	// Addr is the worker's HTTP base URL (e.g. http://10.0.0.7:8080).
	Addr string `json:"addr"`
	// WireAddr is the worker's wire listener ("" = none): host:port or
	// unix:/path.
	WireAddr string `json:"wire_addr,omitempty"`

	State    WorkerState `json:"state"`
	Sessions int         `json:"sessions"` // from the last healthz probe
	Fails    int         `json:"fails,omitempty"`
	LastSeen time.Time   `json:"last_seen"`
}

// route is the gateway's per-session state: the owning worker. The
// RWMutex is the migration barrier — see the package comment.
type route struct {
	mu     sync.RWMutex
	worker string
	dead   bool // a failed resurrection; entry already unmapped
}

// Config parameterizes a Gateway. Zero values select the defaults.
type Config struct {
	// Replicas is the virtual-node count per worker on the hash ring
	// (default 64).
	Replicas int
	// HealthInterval is the worker probe cadence (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 2s).
	HealthTimeout time.Duration
	// MaxFails consecutive probe failures mark a worker unhealthy and
	// remove it from the ring (default 3).
	MaxFails int
	// ProxyTimeout bounds one forwarded request (default 60s — a step
	// request may legitimately run tens of seconds).
	ProxyTimeout time.Duration
	// ParkDir is where workers park idle-evicted sessions; the gateway
	// resurrects parked sessions from here on touch ("" disables).
	ParkDir string
	// Logf, if non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Replicas == 0 {
		c.Replicas = 64
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout == 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MaxFails == 0 {
		c.MaxFails = 3
	}
	if c.ProxyTimeout == 0 {
		c.ProxyTimeout = 60 * time.Second
	}
}

// Gateway routes sessions over the worker fleet.
type Gateway struct {
	cfg     Config
	Metrics *Metrics
	hc      *http.Client // forwards and probes; per-request timeouts
	maxBody int64        // proxied body limit, maxProxyBody

	mu      sync.Mutex
	workers map[string]*Worker
	ring    *Ring
	routes  map[string]*route
	drains  map[string]chan struct{} // in-progress worker drains
	nextID  uint64
	nonce   string // distinguishes ids across gateway restarts

	wcMu        sync.Mutex
	wireClients map[string]*wire.Client

	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// New returns a gateway with an empty registry. Call Start to begin
// health probing and Close to stop.
func New(cfg Config) *Gateway {
	cfg.fill()
	var nb [3]byte
	rand.Read(nb[:])
	g := &Gateway{
		cfg:         cfg,
		Metrics:     NewMetrics(),
		hc:          &http.Client{},
		maxBody:     maxProxyBody,
		workers:     make(map[string]*Worker),
		ring:        NewRing(cfg.Replicas),
		routes:      make(map[string]*route),
		drains:      make(map[string]chan struct{}),
		nonce:       fmt.Sprintf("%x", nb),
		wireClients: make(map[string]*wire.Client),
	}
	g.Metrics.Workers = g.workersByState
	g.Metrics.Routes = g.RouteCount
	return g
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// RouteCount returns the number of live route entries.
func (g *Gateway) RouteCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.routes)
}

func (g *Gateway) workersByState() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(workerStates))
	for _, w := range g.workers {
		out[string(w.State)]++
	}
	return out
}

// Workers returns a snapshot of the registry, sorted by id.
func (g *Gateway) Workers() []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Worker, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Register adds a worker (or refreshes an existing registration —
// re-registering is how a restarted worker rejoins). The worker is
// probed immediately: a passing probe enters the ring now instead of
// waiting one health interval.
func (g *Gateway) Register(id, addr, wireAddr string) (*Worker, error) {
	if id == "" {
		id = addr
	}
	if id == "" || addr == "" {
		return nil, fmt.Errorf("gate: register requires a worker address")
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return nil, fmt.Errorf("gate: worker addr %q is not an http(s) base URL", addr)
	}
	g.mu.Lock()
	w, ok := g.workers[id]
	if !ok {
		w = &Worker{ID: id}
		g.workers[id] = w
	}
	w.Addr = strings.TrimSuffix(addr, "/")
	w.WireAddr = wireAddr
	w.State = WorkerJoining
	w.Fails = 0
	g.ring.Remove(id) // re-registration resets membership until probed
	g.mu.Unlock()
	g.dropWireClient(id)
	g.probe(id)
	g.mu.Lock()
	snapshot := *g.workers[id]
	g.mu.Unlock()
	g.logf("worker %s registered (%s, wire %q) -> %s", id, addr, wireAddr, snapshot.State)
	return &snapshot, nil
}

// Start launches the health loop.
func (g *Gateway) Start() {
	if g.healthStop != nil {
		return
	}
	g.healthStop = make(chan struct{})
	g.healthDone = make(chan struct{})
	go func() {
		defer close(g.healthDone)
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-g.healthStop:
				return
			case <-t.C:
				g.probeAll()
			}
		}
	}()
}

// Close stops the health loop and tears down pooled worker
// connections. It does not drain workers — they outlive the gateway.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		if g.healthStop != nil {
			close(g.healthStop)
			<-g.healthDone
		}
		g.wcMu.Lock()
		for id, c := range g.wireClients {
			c.Close()
			delete(g.wireClients, id)
		}
		g.wcMu.Unlock()
	})
}

func (g *Gateway) probeAll() {
	g.mu.Lock()
	ids := make([]string, 0, len(g.workers))
	for id, w := range g.workers {
		if w.State != WorkerGone {
			ids = append(ids, id)
		}
	}
	g.mu.Unlock()
	for _, id := range ids {
		g.probe(id)
	}
}

// probe health-checks one worker and applies the membership
// transition: pass -> healthy (in the ring), drain-advertising ->
// migrate-out, MaxFails consecutive failures -> unhealthy (out of the
// ring, routes kept — the worker may come back).
func (g *Gateway) probe(id string) {
	g.mu.Lock()
	w, ok := g.workers[id]
	if !ok || w.State == WorkerGone || w.State == WorkerDraining {
		g.mu.Unlock()
		return
	}
	addr := w.Addr
	g.mu.Unlock()

	g.Metrics.HealthProbes.Add(1)
	status, body, err := g.get(addr + "/healthz")

	g.mu.Lock()
	w, ok = g.workers[id]
	if !ok || w.State == WorkerGone || w.State == WorkerDraining {
		g.mu.Unlock()
		return
	}
	switch {
	case err == nil && status == http.StatusOK:
		var hz struct {
			Sessions int `json:"sessions"`
		}
		json.Unmarshal(body, &hz)
		if w.State != WorkerHealthy {
			g.logf("worker %s: %s -> healthy", id, w.State)
		}
		w.State = WorkerHealthy
		w.Fails = 0
		w.Sessions = hz.Sessions
		w.LastSeen = time.Now()
		g.ring.Add(id)
		g.mu.Unlock()
	case err == nil && status == http.StatusServiceUnavailable && bytes.Contains(body, []byte("draining")):
		// The worker announced its own drain (e.g. a SIGTERM the
		// gateway was not told about): migrate its sessions out.
		w.LastSeen = time.Now()
		g.mu.Unlock()
		g.logf("worker %s: advertises draining, migrating sessions out", id)
		go g.DrainWorker(id)
	default:
		w.Fails++
		fails := w.Fails
		state := w.State
		if fails >= g.cfg.MaxFails && state != WorkerUnhealthy {
			w.State = WorkerUnhealthy
			g.ring.Remove(id)
			g.logf("worker %s: %d failed probes, marked unhealthy and removed from the ring", id, fails)
		}
		g.mu.Unlock()
		g.dropWireClient(id)
	}
}

// get issues a bounded GET and returns status and body.
func (g *Gateway) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := timeoutCtx(g.cfg.HealthTimeout)
	defer cancel()
	resp, err := g.hc.Do(req.WithContext(ctx))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// worker returns a copy of the worker record.
func (g *Gateway) worker(id string) (Worker, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		return Worker{}, false
	}
	return *w, true
}

// placementOrder returns healthy workers in ring-preference order for
// the key.
func (g *Gateway) placementOrder(key string) []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := g.ring.LookupN(key, g.ring.Len())
	out := make([]Worker, 0, len(ids))
	for _, id := range ids {
		if w, ok := g.workers[id]; ok && w.State == WorkerHealthy {
			out = append(out, *w)
		}
	}
	return out
}

// getRoute returns the live route for a session id.
func (g *Gateway) getRoute(id string) (*route, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt, ok := g.routes[id]
	return rt, ok
}

// dropRoute removes a route entry (eviction, or a 404 observed from
// the owning worker — the worker discarded the session, so the route
// is stale and the next touch may resurrect from a park).
func (g *Gateway) dropRoute(id string) {
	g.mu.Lock()
	delete(g.routes, id)
	g.mu.Unlock()
}

// wireClient returns the pooled wire connection to a worker, dialing
// lazily.
func (g *Gateway) wireClient(workerID string) (*wire.Client, error) {
	g.wcMu.Lock()
	defer g.wcMu.Unlock()
	if c, ok := g.wireClients[workerID]; ok {
		return c, nil
	}
	w, ok := g.worker(workerID)
	if !ok {
		return nil, fmt.Errorf("gate: unknown worker %s", workerID)
	}
	if w.WireAddr == "" {
		return nil, fmt.Errorf("gate: worker %s has no wire listener", workerID)
	}
	c, err := wire.Dial(w.WireAddr)
	if err != nil {
		return nil, fmt.Errorf("gate: dialing worker %s wire plane: %w", workerID, err)
	}
	c.Timeout = g.cfg.ProxyTimeout
	g.wireClients[workerID] = c
	return c, nil
}

// dropWireClient discards the pooled connection to a worker (after a
// transport error or re-registration).
func (g *Gateway) dropWireClient(workerID string) {
	g.wcMu.Lock()
	c, ok := g.wireClients[workerID]
	if ok {
		delete(g.wireClients, workerID)
	}
	g.wcMu.Unlock()
	if ok {
		c.Close()
	}
}

// mintID returns a fresh globally-routable session id.
func (g *Gateway) mintID() string {
	g.mu.Lock()
	g.nextID++
	n := g.nextID
	g.mu.Unlock()
	return fmt.Sprintf("g%s-%06d", g.nonce, n)
}
