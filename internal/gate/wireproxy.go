package gate

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// WireProxy is the gateway's wire plane: a wire.Server whose handler
// routes client frames by session id and forwards them to the owning
// worker's wire listener over a pooled connection per worker. The
// gateway stamps its own request id on the worker hop and rewrites
// the response's id back to the client's, so many clients multiplex
// through one worker connection without id collisions. NACKs —
// including backpressure — cross the hop verbatim, keeping the
// two-plane contract identical whether a client talks to a worker
// directly or through the fabric.
type WireProxy = wire.Server

// NewWireProxy returns a wire proxy over the gateway.
func NewWireProxy(g *Gateway) *WireProxy {
	return &wire.Server{Handler: g.handleFrame, Connections: &g.Metrics.WireConnections}
}

// sessionOf extracts the session id a request frame addresses.
func sessionOf(f wire.Frame) (string, error) {
	switch f.Op {
	case wire.OpStep:
		var req wire.StepRequest
		err := req.Decode(f.Payload)
		return req.Session, err
	case wire.OpRegisters:
		var req wire.RegistersRequest
		err := req.Decode(f.Payload)
		return req.Session, err
	case wire.OpMem:
		var req wire.MemRequest
		err := req.Decode(f.Payload)
		return req.Session, err
	case wire.OpTrace:
		var req wire.TraceRequest
		err := req.Decode(f.Payload)
		return req.Session, err
	default:
		return "", fmt.Errorf("gate: op %s is not routable", f.Op)
	}
}

// handleFrame serves one client frame: hello locally, everything
// else forwarded to the session's worker under the route read lock.
func (g *Gateway) handleFrame(w *wire.ResponseWriter, f wire.Frame) {
	if f.Op == wire.OpHello {
		var req wire.HelloRequest
		if err := req.Decode(f.Payload); err != nil {
			w.Nack(f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		w.Write(wire.Frame{Op: wire.OpHello, ReqID: f.ReqID,
			Payload: (&wire.HelloResponse{Server: "osmgate", MaxPayload: wire.MaxPayload}).Encode()})
		return
	}

	id, err := sessionOf(f)
	if err != nil {
		w.Nack(f.ReqID, wire.NackBadRequest, err.Error())
		return
	}

	// Two attempts, like the HTTP plane: a worker's not-found NACK
	// means the route was stale (idle-evicted, possibly parked) — drop
	// it and retry once, resurrecting from the park on the way.
	for attempt := 0; ; attempt++ {
		rt, err := g.ensureRoute(id)
		if err != nil {
			if errors.Is(err, errNoRoute) {
				w.Nack(f.ReqID, wire.NackNotFound, "session "+id+" not found")
			} else {
				w.Nack(f.ReqID, wire.NackInternal, err.Error())
			}
			return
		}
		resp, ok := g.forwardFrame(w, rt, id, f)
		if !ok {
			return // error already nacked
		}
		if resp.Op == wire.OpNack {
			var n wire.Nack
			if n.Decode(resp.Payload) == nil {
				switch n.Code {
				case wire.NackBackpressure:
					g.Metrics.BackpressWire.Add(1)
				case wire.NackNotFound:
					g.dropRoute(id)
					if attempt == 0 {
						continue
					}
				}
			}
		}
		// Rewrite the worker-hop request id back to the client's.
		resp.ReqID = f.ReqID
		w.Write(resp)
		return
	}
}

// forwardFrame proxies one frame under the route read lock. ok=false
// means the failure was already answered with a NACK.
func (g *Gateway) forwardFrame(w *wire.ResponseWriter, rt *route, id string, f wire.Frame) (wire.Frame, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.dead || rt.worker == "" {
		w.Nack(f.ReqID, wire.NackNotFound, "session "+id+" not found")
		return wire.Frame{}, false
	}
	workerID := rt.worker
	resp, err := g.roundTripFrame(workerID, f)
	if err != nil {
		g.Metrics.ProxyErrors.Add(1)
		w.Nack(f.ReqID, wire.NackInternal, fmt.Sprintf("worker %s: %v", workerID, err))
		return wire.Frame{}, false
	}
	g.Metrics.ProxiedWire.Add(1)
	return resp, true
}

// roundTripFrame forwards one frame over the pooled connection to a
// worker, redialing once if the pooled connection has died.
func (g *Gateway) roundTripFrame(workerID string, f wire.Frame) (wire.Frame, error) {
	c, err := g.wireClient(workerID)
	if err != nil {
		return wire.Frame{}, err
	}
	resp, err := c.RoundTrip(f.Op, f.Payload)
	if err == nil {
		return resp, nil
	}
	// The pooled connection may simply be stale (worker restarted):
	// drop it and retry once on a fresh dial.
	g.dropWireClient(workerID)
	c, derr := g.wireClient(workerID)
	if derr != nil {
		return wire.Frame{}, err
	}
	return c.RoundTrip(f.Op, f.Payload)
}
