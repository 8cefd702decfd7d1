package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// WireServer is the worker's wire plane: a wire.Server whose handler
// serves the hot path (step, register and memory peeks, trace pulls)
// over the Manager it shares with the HTTP control plane — session
// table, step scheduler, metrics — without JSON marshalling or
// per-request connection setup; everything else (create, list,
// snapshot, restore, evict) stays on HTTP. Errors travel as NACK
// frames whose codes mirror the HTTP status mapping, so both planes
// present one backpressure and lifecycle contract.
type WireServer = wire.Server

// NewWireServer returns a wire server over the manager.
func NewWireServer(m *Manager) *WireServer {
	return &wire.Server{Handler: m.handleFrame, Connections: &m.Metrics.WireConnections}
}

// nackFor maps manager errors onto NACK codes, mirroring
// writeAPIError's HTTP status mapping.
func nackFor(err error) wire.NackCode {
	switch {
	case errors.Is(err, ErrBackpressure), errors.Is(err, ErrOverloaded):
		return wire.NackBackpressure
	case errors.Is(err, ErrDraining):
		return wire.NackDraining
	case errors.Is(err, ErrNotFound):
		return wire.NackNotFound
	case errors.Is(err, ErrConflict):
		return wire.NackConflict
	default:
		return wire.NackInternal
	}
}

func (m *Manager) nackFrame(w *wire.ResponseWriter, reqID uint32, code wire.NackCode, msg string) {
	m.Metrics.WireNacks.Add(1)
	w.Nack(reqID, code, msg)
}

// handleFrame serves one request frame, counting it first. Panics are
// isolated per request, exactly like the HTTP plane: counted, the
// session (if resolved) poisoned, and answered with an internal NACK.
func (m *Manager) handleFrame(w *wire.ResponseWriter, f wire.Frame) {
	m.Metrics.WireRequests.Add(1)
	var s *Session
	defer func() {
		if p := recover(); p != nil {
			m.Metrics.Panics.Add(1)
			if s != nil {
				s.Poison(fmt.Errorf("request panic: %v", p))
			}
			m.nackFrame(w, f.ReqID, wire.NackInternal, fmt.Sprintf("request panic: %v", p))
		}
	}()

	reply := func(payload []byte) {
		w.Write(wire.Frame{Op: f.Op, ReqID: f.ReqID, Payload: payload})
	}
	fail := func(err error) {
		m.nackFrame(w, f.ReqID, nackFor(err), err.Error())
	}
	// Resolve the session named by the request, or NACK. The id stays
	// in s for the panic isolator above.
	resolve := func(id string) bool {
		var err error
		s, err = m.Get(id)
		if err != nil {
			fail(err)
			return false
		}
		return true
	}

	switch f.Op {
	case wire.OpHello:
		var req wire.HelloRequest
		if err := req.Decode(f.Payload); err != nil {
			m.nackFrame(w, f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		reply((&wire.HelloResponse{Server: "osmserve", MaxPayload: wire.MaxPayload}).Encode())

	case wire.OpStep:
		var req wire.StepRequest
		if err := req.Decode(f.Payload); err != nil {
			m.nackFrame(w, f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		if !resolve(req.Session) {
			return
		}
		res, err := m.Step(s, req.Cycles, time.Duration(req.DeadlineMS)*time.Millisecond)
		if err != nil {
			fail(err)
			return
		}
		resp := wire.StepResponse{
			Stepped:          res.Stepped,
			Cycle:            res.Cycle,
			Done:             res.Done,
			DeadlineExceeded: res.DeadlineExceeded,
			State:            string(res.State),
		}
		if res.Result != nil {
			resp.HasResult = true
			resp.Instrs = res.Result.Instrs
			resp.Reported = res.Result.Reported
		}
		reply(resp.Encode())

	case wire.OpRegisters:
		var req wire.RegistersRequest
		if err := req.Decode(f.Payload); err != nil {
			m.nackFrame(w, f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		if !resolve(req.Session) {
			return
		}
		cycle, regs := m.Registers(s)
		resp := wire.RegistersResponse{Cycle: cycle, Regs: make([]wire.Reg, len(regs))}
		for i, rg := range regs {
			resp.Regs[i] = wire.Reg{Name: rg.Name, Value: rg.Value}
		}
		reply(resp.Encode())

	case wire.OpMem:
		var req wire.MemRequest
		if err := req.Decode(f.Payload); err != nil {
			m.nackFrame(w, f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		if !resolve(req.Session) {
			return
		}
		data, err := m.ReadMem(s, req.Addr, req.Len)
		if err != nil {
			fail(err)
			return
		}
		reply((&wire.MemResponse{Addr: req.Addr, Data: data}).Encode())

	case wire.OpTrace:
		var req wire.TraceRequest
		if err := req.Decode(f.Payload); err != nil {
			m.nackFrame(w, f.ReqID, wire.NackBadRequest, err.Error())
			return
		}
		if !resolve(req.Session) {
			return
		}
		evs, total, sum := m.TraceEvents(s, req.Since)
		resp := wire.TraceResponse{Total: total, Checksum: sum, Events: make([]wire.Event, len(evs))}
		for i, e := range evs {
			resp.Events[i] = wire.Event{Step: e.Step, Machine: e.Machine, Edge: e.Edge, From: e.From, To: e.To}
		}
		reply(resp.Encode())

	default:
		// ParseHeader already rejects unknown ops; a request-only op
		// arriving here (OpNack) is a protocol violation.
		m.nackFrame(w, f.ReqID, wire.NackBadRequest, fmt.Sprintf("op %s is not a request", f.Op))
	}
}
