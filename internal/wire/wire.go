// Package wire is the binary hot-path protocol of the simulation
// service: a length-prefixed framing layer plus a small set of
// fixed-layout request/response messages for the operations a
// fine-grained client issues per simulated quantum — step, peek
// registers or memory, pull the trace window. The HTTP/JSON API
// remains the control plane (create, evict, snapshot, restore); this
// package exists because EXPERIMENTS.md §10 measured the HTTP/JSON
// round trip dominating per-cycle cost for small step requests.
//
// The framing is deliberately minimal and symmetric:
//
//	offset  size  field
//	0       4     magic 0x4f534d57 ("OSMW"), little-endian
//	4       1     protocol version (Version)
//	5       1     op code
//	6       2     flags (must be zero; reserved)
//	8       4     request id (echoed verbatim in the response)
//	12      4     payload length (bounded by MaxPayload)
//	16      …     payload (snap-encoded message)
//
// Request ids multiplex concurrent requests over one connection: the
// client stamps each frame with a fresh id and the server echoes it,
// so responses may arrive in any order and a slow step never blocks a
// concurrent register peek on the same connection. Error responses
// are a single Nack message carrying a machine-readable code that
// mirrors the HTTP plane's status mapping (backpressure ↔ 429,
// draining ↔ 503, not-found ↔ 404, conflict ↔ 409).
//
// Payloads reuse the internal/snap codec — fixed-width little-endian
// integers, length-prefixed strings, sticky-error bounds-checked
// reads — so the decoder never panics on hostile input; FuzzFrame
// keeps it that way.
//
// Client and Dial are the calling side. Server and Listen are the
// serving side, shared by both service tiers: osmserve's wire plane
// and osmgate's wire proxy differ only in their request handler.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic identifies a wire frame ("OSMW" read as a little-endian u32).
const Magic uint32 = 0x4f534d57

// Version is the protocol version carried in every frame header.
// Frames with a different version are rejected at decode.
const Version uint8 = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 16

// MaxPayload bounds a frame payload (16 MiB) so a hostile or corrupt
// length prefix cannot turn into a giant allocation.
const MaxPayload uint32 = 16 << 20

// Op is a frame's operation code. Responses carry the op of the
// request they answer; errors come back as OpNack.
type Op uint8

// The protocol operations. The hot path is OpStep/OpRegisters/
// OpMem/OpTrace; OpHello is the connection handshake (optional —
// version checking also happens per frame).
const (
	OpHello     Op = 1
	OpStep      Op = 2
	OpRegisters Op = 3
	OpMem       Op = 4
	OpTrace     Op = 5
	// OpNack is the error response to any request.
	OpNack Op = 0x7e
)

func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpStep:
		return "step"
	case OpRegisters:
		return "registers"
	case OpMem:
		return "mem"
	case OpTrace:
		return "trace"
	case OpNack:
		return "nack"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// knownOp reports whether the op code is part of the protocol. The
// frame layer rejects unknown ops at decode so a desynchronized or
// hostile stream fails at the first frame boundary.
func knownOp(o Op) bool {
	switch o {
	case OpHello, OpStep, OpRegisters, OpMem, OpTrace, OpNack:
		return true
	}
	return false
}

// Frame is one decoded frame: an op, the multiplexing request id and
// the raw payload (message-level decoding is the caller's business).
type Frame struct {
	Op      Op
	ReqID   uint32
	Payload []byte
}

// Framing errors. ErrBadFrame wraps every header-validation failure so
// transports can distinguish protocol corruption from io errors.
var ErrBadFrame = errors.New("wire: bad frame")

// AppendFrame appends the encoded frame to buf and returns the
// extended slice — the allocation-free path used by buffered writers.
func AppendFrame(buf []byte, f Frame) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, Magic)
	buf = append(buf, Version, uint8(f.Op))
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, f.ReqID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Payload)))
	return append(buf, f.Payload...)
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f Frame) error {
	if uint64(len(f.Payload)) > uint64(MaxPayload) {
		return fmt.Errorf("%w: payload %d exceeds %d-byte cap", ErrBadFrame, len(f.Payload), MaxPayload)
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, HeaderSize+len(f.Payload)), f))
	return err
}

// ParseHeader validates a 16-byte frame header and returns the op,
// request id and payload length.
func ParseHeader(h []byte) (op Op, reqID, n uint32, err error) {
	if len(h) < HeaderSize {
		return 0, 0, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(h))
	}
	if got := binary.LittleEndian.Uint32(h[0:4]); got != Magic {
		return 0, 0, 0, fmt.Errorf("%w: magic %#x, want %#x", ErrBadFrame, got, Magic)
	}
	if h[4] != Version {
		return 0, 0, 0, fmt.Errorf("%w: protocol version %d, this build speaks %d", ErrBadFrame, h[4], Version)
	}
	op = Op(h[5])
	if !knownOp(op) {
		return 0, 0, 0, fmt.Errorf("%w: unknown op %d", ErrBadFrame, h[5])
	}
	if flags := binary.LittleEndian.Uint16(h[6:8]); flags != 0 {
		return 0, 0, 0, fmt.Errorf("%w: reserved flags %#x set", ErrBadFrame, flags)
	}
	reqID = binary.LittleEndian.Uint32(h[8:12])
	n = binary.LittleEndian.Uint32(h[12:16])
	if n > MaxPayload {
		return 0, 0, 0, fmt.Errorf("%w: payload length %d exceeds %d-byte cap", ErrBadFrame, n, MaxPayload)
	}
	return op, reqID, n, nil
}

// ReadFrame reads and validates one frame. The returned payload is
// freshly allocated and does not alias any internal buffer. An EOF at
// a frame boundary is io.EOF; a truncated frame is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Frame, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
		}
		return Frame{}, err
	}
	op, reqID, n, err := ParseHeader(h[:])
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Op: op, ReqID: reqID}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("%w: truncated payload (want %d bytes): %v", ErrBadFrame, n, err)
		}
	}
	return f, nil
}

// Decode parses one frame from the front of b and returns it plus the
// number of bytes consumed — the slice-level twin of ReadFrame used by
// the fuzzer and by transports that batch reads.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < HeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(b))
	}
	op, reqID, n, err := ParseHeader(b[:HeaderSize])
	if err != nil {
		return Frame{}, 0, err
	}
	if uint64(len(b)-HeaderSize) < uint64(n) {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrBadFrame, len(b)-HeaderSize, n)
	}
	f := Frame{Op: op, ReqID: reqID}
	if n > 0 {
		f.Payload = append([]byte(nil), b[HeaderSize:HeaderSize+int(n)]...)
	}
	return f, HeaderSize + int(n), nil
}
