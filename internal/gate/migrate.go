package gate

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/server"
)

// errNoRoute reports a session the gateway has no route for and no
// park to resurrect from.
var errNoRoute = errors.New("gate: no route for session")

// Migrate moves one session to another worker: snapshot on the
// source, place that snapshot on the target in one request, delete
// the source copy, repoint the route. The route's write lock is held
// throughout, so no client request observes the intermediate states —
// a request issued mid-migration blocks and then lands on the new
// worker. The session snapshot carries the trace recorder, so cycle
// counts, registers, reported values and the whole-run trace checksum
// are all byte-identical across the move.
//
// target "" lets the ring choose (the session's preference order,
// skipping the source). reason is the metrics label: "drain",
// "rebalance" or "resurrect". Returns the source and destination
// worker ids.
func (g *Gateway) Migrate(id, target, reason string) (from, to string, err error) {
	rt, ok := g.getRoute(id)
	if !ok {
		// Admin-driven migration of a session this gateway did not
		// place: find its host and adopt the route first.
		rt, ok = g.discoverRoute(id)
	}
	if !ok {
		return "", "", fmt.Errorf("%w: %s", errNoRoute, id)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.dead || rt.worker == "" {
		return "", "", fmt.Errorf("%w: %s", errNoRoute, id)
	}
	from = rt.worker

	to = target
	if to == "" {
		to = g.pickTarget(id, from)
	}
	if to == "" {
		g.Metrics.MigrationFailures.Add(1)
		return from, "", fmt.Errorf("gate: no healthy migration target for %s (source %s)", id, from)
	}
	if to == from {
		return from, to, nil // already there; nothing to move
	}
	src, ok := g.worker(from)
	if !ok {
		g.Metrics.MigrationFailures.Add(1)
		return from, to, fmt.Errorf("gate: source worker %s not registered", from)
	}
	dst, ok := g.worker(to)
	if !ok {
		g.Metrics.MigrationFailures.Add(1)
		return from, to, fmt.Errorf("gate: target worker %s not registered", to)
	}

	if err := g.moveSession(id, src, dst); err != nil {
		g.Metrics.MigrationFailures.Add(1)
		g.logf("migrate %s %s->%s (%s): %v", id, from, to, reason, err)
		return from, to, err
	}
	rt.worker = to
	g.countMigration(reason)
	g.logf("migrated %s %s->%s (%s)", id, from, to, reason)
	return from, to, nil
}

func (g *Gateway) countMigration(reason string) {
	switch reason {
	case "drain":
		g.Metrics.MigrationsDrain.Add(1)
	case "resurrect":
		g.Metrics.MigrationsResurrect.Add(1)
	default:
		g.Metrics.MigrationsRebalance.Add(1)
	}
}

// pickTarget returns the best healthy worker for a session other than
// the excluded source, preferring ring order for placement stability.
func (g *Gateway) pickTarget(id, exclude string) string {
	for _, w := range g.placementOrder(id) {
		if w.ID != exclude {
			return w.ID
		}
	}
	return ""
}

// moveSession performs the snapshot -> place -> delete legs. Caller
// holds the route's write lock. Placement is all or nothing on the
// target, so on any failure the source copy is left running and the
// target holds nothing new: a failed migration degrades to "session
// stayed put".
func (g *Gateway) moveSession(id string, src, dst Worker) error {
	status, _, blob, err := g.doMethod(http.MethodGet, src.Addr+"/v1/sessions/"+id+"/snapshot", "", nil)
	if err != nil {
		return fmt.Errorf("snapshot from %s: %w", src.ID, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("snapshot from %s: status %d: %s", src.ID, status, trimBody(blob))
	}
	if err := g.place(dst, id, blob); err != nil {
		return err
	}
	// The target owns the session now; losing the source copy is the
	// point. Best-effort — a failed delete leaves an orphan the
	// source's idle janitor will collect.
	if status, _, body, err := g.doMethod(http.MethodDelete, src.Addr+"/v1/sessions/"+id, "", nil); err != nil || status != http.StatusOK {
		g.logf("migrate %s: deleting source copy on %s: status %d err %v %s", id, src.ID, status, err, trimBody(body))
	}
	return nil
}

// place enters a session snapshot on a worker under the session's id:
// one PUT, which the worker admits, restores and enters atomically. A
// 409 there means a copy with this id is already resident — one a
// lost reply of an earlier attempt left behind — so the snapshot is
// restored over that copy instead, which the worker refuses unless
// the copy is of the snapshot's spec.
func (g *Gateway) place(w Worker, id string, snapshot []byte) error {
	url := w.Addr + "/v1/sessions/" + id
	status, _, body, err := g.doMethod(http.MethodPut, url, "application/octet-stream", snapshot)
	if err == nil && status == http.StatusConflict {
		status, _, body, err = g.doMethod(http.MethodPost, url+"/restore", "application/octet-stream", snapshot)
	}
	switch {
	case err != nil:
		return fmt.Errorf("placing on %s: %w", w.ID, err)
	case status != http.StatusCreated && status != http.StatusOK:
		return fmt.Errorf("placing on %s: status %d: %s", w.ID, status, trimBody(body))
	}
	return nil
}

// DrainWorker migrates every session routed to the worker onto the
// rest of the fleet and marks the worker gone. The worker is told to
// stop admitting first (its own drain endpoint), so placements racing
// with the drain bounce to other workers. Returns the number of
// sessions migrated; the error aggregates any that could not move.
func (g *Gateway) DrainWorker(id string) (int, error) {
	g.mu.Lock()
	w, ok := g.workers[id]
	if !ok {
		g.mu.Unlock()
		return 0, fmt.Errorf("gate: unknown worker %s", id)
	}
	if ch, inProgress := g.drains[id]; inProgress {
		// Another caller is already draining this worker (the health
		// loop and the worker's own SIGTERM notification can race).
		// Wait it out: a drain caller's contract is "when I return,
		// this worker hosts nothing the gateway needs".
		g.mu.Unlock()
		<-ch
		return 0, nil
	}
	if w.State == WorkerGone {
		g.mu.Unlock()
		return 0, nil
	}
	ch := make(chan struct{})
	g.drains[id] = ch
	defer close(ch)
	w.State = WorkerDraining
	g.ring.Remove(id)
	addr := w.Addr
	g.mu.Unlock()
	g.logf("draining worker %s", id)

	// Stop admissions on the worker. Best-effort: if the worker is
	// already wedged we still migrate what we can from the route table.
	var reported []string
	if status, _, body, err := g.doMethod(http.MethodPost, addr+"/v1/admin/drain", "application/json", []byte("{}")); err == nil && status == http.StatusOK {
		var resp struct {
			Sessions []string `json:"sessions"`
		}
		if json.Unmarshal(body, &resp) == nil {
			reported = resp.Sessions
		}
	} else {
		g.logf("drain %s: admin/drain unavailable (status %d, err %v); using route table", id, status, err)
	}

	// Migrate everything the route table maps to this worker, plus
	// any session the worker itself reports that the gateway has no
	// route for — a restarted gateway adopts those strays (the
	// snapshot names everything the target needs), so no session is
	// stranded on the draining worker.
	g.mu.Lock()
	var resident []string
	routed := make(map[string]bool)
	for sid := range g.routes {
		routed[sid] = true
	}
	g.mu.Unlock()
	for _, sid := range sortedKeys(routed) {
		rt, ok := g.getRoute(sid)
		if !ok {
			continue
		}
		rt.mu.RLock()
		owner := rt.worker
		rt.mu.RUnlock()
		if owner == id {
			resident = append(resident, sid)
		}
	}
	sort.Strings(reported)
	for _, sid := range reported {
		if routed[sid] || !server.ValidSessionID(sid) {
			continue
		}
		g.adoptRoute(sid, id)
		resident = append(resident, sid)
		routed[sid] = true
		g.logf("drain %s: adopted unrouted resident session %s", id, sid)
	}

	var errs []error
	moved := 0
	for _, sid := range resident {
		if _, _, err := g.Migrate(sid, "", "drain"); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", sid, err))
			continue
		}
		moved++
	}

	g.mu.Lock()
	if w, ok := g.workers[id]; ok && w.State == WorkerDraining {
		w.State = WorkerGone
	}
	g.mu.Unlock()
	g.dropWireClient(id)
	g.logf("worker %s drained: %d migrated, %d failed", id, moved, len(errs))
	return moved, errors.Join(errs...)
}

// ensureRoute returns the live route for a session: the known route,
// a route discovered by asking the fleet (a restarted gateway lost
// its table), or one resurrected from a parked snapshot.
func (g *Gateway) ensureRoute(id string) (*route, error) {
	if rt, ok := g.getRoute(id); ok {
		return rt, nil
	}
	if rt, ok := g.discoverRoute(id); ok {
		return rt, nil
	}
	if g.cfg.ParkDir == "" || !server.ValidSessionID(id) {
		return nil, fmt.Errorf("%w: %s", errNoRoute, id)
	}
	return g.resurrect(id)
}

// discoverRoute asks the fleet which worker hosts a session the
// gateway has no route for, and adopts a route pointing at the worker
// that answers. Ring placement order is probed first (the likeliest
// hosts), then the remaining live workers — an earlier gateway may
// have migrated the session anywhere.
func (g *Gateway) discoverRoute(id string) (*route, bool) {
	if !server.ValidSessionID(id) {
		return nil, false
	}
	cands := g.placementOrder(id)
	seen := make(map[string]bool, len(cands))
	for _, w := range cands {
		seen[w.ID] = true
	}
	g.mu.Lock()
	for _, w := range g.workers {
		if !seen[w.ID] && (w.State == WorkerHealthy || w.State == WorkerDraining) {
			cands = append(cands, *w)
		}
	}
	g.mu.Unlock()
	sort.SliceStable(cands[len(seen):], func(i, j int) bool {
		return cands[len(seen)+i].ID < cands[len(seen)+j].ID
	})
	for _, w := range cands {
		status, _, _, err := g.doMethod(http.MethodGet, w.Addr+"/v1/sessions/"+id, "", nil)
		if err == nil && status == http.StatusOK {
			g.logf("discovered session %s on worker %s, route adopted", id, w.ID)
			return g.adoptRoute(id, w.ID), true
		}
	}
	return nil, false
}

// adoptRoute installs a route for a session the gateway did not place
// (or returns the existing route if a concurrent adoption won).
func (g *Gateway) adoptRoute(id, workerID string) *route {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rt, ok := g.routes[id]; ok {
		return rt
	}
	rt := &route{worker: workerID}
	g.routes[id] = rt
	return rt
}

// resurrect restores a parked session onto a ring-chosen worker and
// installs its route. Concurrent touches of the same id serialize on
// the placeholder route's write lock: the first does the restore, the
// rest block and then proceed against the live route.
func (g *Gateway) resurrect(id string) (*route, error) {
	g.mu.Lock()
	if rt, ok := g.routes[id]; ok {
		g.mu.Unlock()
		return rt, nil
	}
	rt := &route{}
	rt.mu.Lock() // cannot block: rt is unpublished until the next line
	g.routes[id] = rt
	g.mu.Unlock()

	ok := false
	defer func() {
		if !ok {
			rt.dead = true
			g.dropRoute(id)
		}
		rt.mu.Unlock()
	}()

	meta, blob, err := server.LoadPark(g.cfg.ParkDir, id)
	if err != nil {
		// Missing or corrupt park either way means the session does not
		// exist anywhere the gateway can reach.
		return nil, fmt.Errorf("%w: %s", errNoRoute, id)
	}

	var lastErr error
	for _, cand := range g.placementOrder(id) {
		if err := g.place(cand, id, blob); err != nil {
			lastErr = err
			continue
		}
		if err := server.ConsumePark(g.cfg.ParkDir, id); err != nil {
			g.logf("resurrect %s: consuming park: %v", id, err)
		}
		rt.worker = cand.ID
		ok = true
		g.Metrics.MigrationsResurrect.Add(1)
		g.logf("resurrected parked session %s (cycle %d) on %s", id, meta.Cycle, cand.ID)
		return rt, nil
	}
	g.Metrics.MigrationFailures.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no healthy workers")
	}
	return nil, fmt.Errorf("gate: resurrecting %s: %w", id, lastErr)
}

func trimBody(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
