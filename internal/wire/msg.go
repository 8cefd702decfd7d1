package wire

import (
	"fmt"

	"repro/internal/snap"
)

// Message-level caps. Payload lengths are already bounded by
// MaxPayload; these bound the element counts a decoder will allocate
// for, so a small hostile payload cannot claim a huge count.
const (
	// MaxRegisters bounds a register-peek response.
	MaxRegisters = 4096
	// MaxTraceEvents bounds a trace response window.
	MaxTraceEvents = 1 << 20
	// maxString bounds any single string field (session ids, state
	// names, machine/edge names, error messages).
	maxString = 1 << 16
)

// NackCode classifies an error response; the mapping mirrors the
// HTTP control plane's status codes so both planes share one
// backpressure and lifecycle contract.
type NackCode uint16

const (
	// NackBadRequest is a malformed or invalid request (HTTP 400).
	NackBadRequest NackCode = 1
	// NackBackpressure reports a full session table or step run-queue;
	// the client should back off and retry (HTTP 429).
	NackBackpressure NackCode = 2
	// NackDraining reports a server shutting down (HTTP 503).
	NackDraining NackCode = 3
	// NackNotFound reports an unknown or evicted session (HTTP 404).
	NackNotFound NackCode = 4
	// NackConflict reports an operation invalid in the session's
	// current state (HTTP 409).
	NackConflict NackCode = 5
	// NackInternal is an isolated server-side failure (HTTP 500).
	NackInternal NackCode = 6
)

func (c NackCode) String() string {
	switch c {
	case NackBadRequest:
		return "bad-request"
	case NackBackpressure:
		return "backpressure"
	case NackDraining:
		return "draining"
	case NackNotFound:
		return "not-found"
	case NackConflict:
		return "conflict"
	case NackInternal:
		return "internal"
	}
	return fmt.Sprintf("nack(%d)", uint16(c))
}

// Nack is the error response to any request.
type Nack struct {
	Code NackCode
	Msg  string
}

// NackError is the client-side error a Nack decodes into.
type NackError struct {
	Code NackCode
	Msg  string
}

func (e *NackError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg) }

// Reg is one named architectural register value (the wire twin of
// runner.Reg; this package stays free of the simulator tree so thin
// clients do not link it).
type Reg struct {
	Name  string
	Value uint32
}

// Event is one recorded OSM transition (the wire twin of osm.Event).
type Event struct {
	Step    uint64
	Machine string
	Edge    string
	From    string
	To      string
}

// HelloRequest opens a connection conversationally: the client names
// itself, the server answers with its banner. Purely informational —
// version enforcement happens on every frame header.
type HelloRequest struct {
	Client string
}

// HelloResponse answers a hello.
type HelloResponse struct {
	Server string
	// MaxPayload echoes the server's frame payload cap.
	MaxPayload uint32
}

// StepRequest advances a session up to Cycles cycles.
type StepRequest struct {
	Session string
	Cycles  uint64
	// DeadlineMS bounds the request's wall time (0 = server default).
	DeadlineMS uint64
}

// StepResponse reports one step request; mirrors the HTTP StepResult.
type StepResponse struct {
	Stepped          uint64
	Cycle            uint64
	Done             bool
	DeadlineExceeded bool
	State            string
	// HasResult marks a completed run; Instrs/Reported are only
	// meaningful when it is set.
	HasResult bool
	Instrs    uint64
	Reported  []uint32
}

// RegistersRequest peeks a session's architectural registers.
type RegistersRequest struct {
	Session string
}

// RegistersResponse carries the named register values.
type RegistersResponse struct {
	Cycle uint64
	Regs  []Reg
}

// MemRequest peeks simulated memory.
type MemRequest struct {
	Session string
	Addr    uint32
	Len     uint32
}

// MemResponse carries the copied range.
type MemResponse struct {
	Addr uint32
	Data []byte
}

// TraceRequest pulls the retained trace window with Step >= Since.
type TraceRequest struct {
	Session string
	Since   uint64
}

// TraceResponse carries the window plus the whole-run aggregates, so
// trace identity (count + order-dependent checksum) is one request.
type TraceResponse struct {
	Total    uint64
	Checksum uint64
	Events   []Event
}

// ---- encoding ----
//
// Every message encodes with the snap codec: fixed-width
// little-endian integers and length-prefixed strings. Decoders are
// total: they check the sticky reader error and full consumption, and
// bound every element count before allocating.

func (m *HelloRequest) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Client)
	return w.Bytes()
}

func (m *HelloRequest) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Client = boundedString(r)
	return r.Close("wire hello request")
}

func (m *HelloResponse) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Server)
	w.U32(m.MaxPayload)
	return w.Bytes()
}

func (m *HelloResponse) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Server = boundedString(r)
	m.MaxPayload = r.U32()
	return r.Close("wire hello response")
}

func (m *StepRequest) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Session)
	w.U64(m.Cycles)
	w.U64(m.DeadlineMS)
	return w.Bytes()
}

func (m *StepRequest) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Session = boundedString(r)
	m.Cycles = r.U64()
	m.DeadlineMS = r.U64()
	return r.Close("wire step request")
}

func (m *StepResponse) Encode() []byte {
	w := snap.NewWriter()
	w.U64(m.Stepped)
	w.U64(m.Cycle)
	w.Bool(m.Done)
	w.Bool(m.DeadlineExceeded)
	w.String(m.State)
	w.Bool(m.HasResult)
	w.U64(m.Instrs)
	w.U32(uint32(len(m.Reported)))
	for _, v := range m.Reported {
		w.U32(v)
	}
	return w.Bytes()
}

func (m *StepResponse) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Stepped = r.U64()
	m.Cycle = r.U64()
	m.Done = r.Bool()
	m.DeadlineExceeded = r.Bool()
	m.State = boundedString(r)
	m.HasResult = r.Bool()
	m.Instrs = r.U64()
	n := boundedCount(r, MaxRegisters, 4, "reported values")
	for i := 0; i < n; i++ {
		m.Reported = append(m.Reported, r.U32())
	}
	return r.Close("wire step response")
}

func (m *RegistersRequest) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Session)
	return w.Bytes()
}

func (m *RegistersRequest) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Session = boundedString(r)
	return r.Close("wire registers request")
}

func (m *RegistersResponse) Encode() []byte {
	w := snap.NewWriter()
	w.U64(m.Cycle)
	w.U32(uint32(len(m.Regs)))
	for _, rg := range m.Regs {
		w.String(rg.Name)
		w.U32(rg.Value)
	}
	return w.Bytes()
}

func (m *RegistersResponse) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Cycle = r.U64()
	n := boundedCount(r, MaxRegisters, 8, "registers")
	for i := 0; i < n; i++ {
		m.Regs = append(m.Regs, Reg{Name: boundedString(r), Value: r.U32()})
	}
	return r.Close("wire registers response")
}

func (m *MemRequest) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Session)
	w.U32(m.Addr)
	w.U32(m.Len)
	return w.Bytes()
}

func (m *MemRequest) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Session = boundedString(r)
	m.Addr = r.U32()
	m.Len = r.U32()
	return r.Close("wire mem request")
}

func (m *MemResponse) Encode() []byte {
	w := snap.NewWriter()
	w.U32(m.Addr)
	w.Bytes32(m.Data)
	return w.Bytes()
}

func (m *MemResponse) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Addr = r.U32()
	m.Data = r.Bytes32()
	return r.Close("wire mem response")
}

func (m *TraceRequest) Encode() []byte {
	w := snap.NewWriter()
	w.String(m.Session)
	w.U64(m.Since)
	return w.Bytes()
}

func (m *TraceRequest) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Session = boundedString(r)
	m.Since = r.U64()
	return r.Close("wire trace request")
}

func (m *TraceResponse) Encode() []byte {
	w := snap.NewWriter()
	w.U64(m.Total)
	w.U64(m.Checksum)
	w.U32(uint32(len(m.Events)))
	for _, e := range m.Events {
		w.U64(e.Step)
		w.String(e.Machine)
		w.String(e.Edge)
		w.String(e.From)
		w.String(e.To)
	}
	return w.Bytes()
}

func (m *TraceResponse) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Total = r.U64()
	m.Checksum = r.U64()
	n := boundedCount(r, MaxTraceEvents, 8+4*4, "trace events")
	for i := 0; i < n; i++ {
		m.Events = append(m.Events, Event{
			Step:    r.U64(),
			Machine: boundedString(r),
			Edge:    boundedString(r),
			From:    boundedString(r),
			To:      boundedString(r),
		})
	}
	return r.Close("wire trace response")
}

func (m *Nack) Encode() []byte {
	w := snap.NewWriter()
	w.U16(uint16(m.Code))
	w.String(m.Msg)
	return w.Bytes()
}

func (m *Nack) Decode(b []byte) error {
	r := snap.NewReader(b)
	m.Code = NackCode(r.U16())
	m.Msg = boundedString(r)
	return r.Close("wire nack")
}

// boundedString reads a length-prefixed string, failing the reader if
// the decoded length exceeds the per-field cap (the snap reader
// already bounds it to the remaining payload).
func boundedString(r *snap.Reader) string {
	s := r.String()
	if len(s) > maxString {
		r.Failf("wire: string field of %d bytes exceeds the %d-byte cap", len(s), maxString)
		return ""
	}
	return s
}

// boundedCount reads an element count and validates it against both
// the message cap and the bytes actually remaining (minSize bytes per
// element), so decoders never allocate on the strength of a
// wire-claimed count alone.
func boundedCount(r *snap.Reader, max, minSize int, what string) int {
	n := int(r.U32())
	if n > max {
		r.Failf("wire: implausible %s count %d (cap %d)", what, n, max)
		return 0
	}
	return r.Count(n, minSize, what)
}
