// Package snap is the binary codec underlying the simulator's
// checkpoint/restore machinery. It provides an append-only Writer and
// a bounds-checked Reader over a flat byte stream, with three
// structural conventions shared by every layer that snapshots state:
//
//   - fixed-width little-endian integers (no varints: snapshots are
//     diffed byte-for-byte in tests, and fixed widths keep offsets
//     stable across values);
//
//   - length-prefixed sub-blobs (Blob / Reader.Blob), so each
//     component owns a delimited region and a corrupt or
//     version-skewed component fails locally instead of desynchronizing
//     the whole stream;
//
//   - a per-component version tag (Writer.Version / Reader.Version),
//     checked on restore, so format evolution is detected instead of
//     misdecoded.
//
// Decoding never panics: the Reader carries a sticky error, every
// accessor returns a zero value once the error is set, and callers
// check Err (or use the helpers that return errors) at component
// boundaries. Encoding mirrors the contract: the Writer carries its
// own sticky error — set when a length-prefixed value exceeds the
// 32-bit length field it would be framed with — and every append is
// inert once the error is set, so an oversized blob can never emit a
// silently truncated length the bounds-checked Reader would misparse.
package snap

import (
	"encoding/binary"
	"fmt"
)

// Magic identifies a top-level snapshot stream ("OSNP").
const Magic uint32 = 0x4f534e50

// Writer accumulates an encoded snapshot.
type Writer struct {
	buf []byte
	err error

	// MaxBlob bounds a single length-prefixed value — Bytes32, String
	// or a Blob region. Zero selects the format ceiling, 2^32-1 (the
	// widest length a U32 prefix can carry); tests lower it to
	// exercise the rejection path without 4 GiB allocations. Exceeding
	// the bound sets the sticky error.
	MaxBlob int
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded stream. The slice aliases the writer's
// buffer; callers must not write to the writer afterwards. A stream is
// only valid if Err returns nil — persistence layers check it before
// committing bytes anywhere.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Err returns the sticky encode error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Failf sets the writer's sticky error (first failure wins), for
// callers whose own validation decides mid-encode that the stream must
// not be used.
func (w *Writer) Failf(format string, args ...any) { w.fail(format, args...) }

// maxBlob resolves the per-value length bound.
func (w *Writer) maxBlob() int {
	if w.MaxBlob > 0 {
		return w.MaxBlob
	}
	ceiling := uint64(^uint32(0)) // 2^32-1, the widest U32 length prefix
	limit := uint64(^uint(0) >> 1)
	if ceiling > limit { // 32-bit platforms: len can never get there
		return int(limit)
	}
	return int(ceiling)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// Bool appends a byte 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
		return
	}
	w.U8(0)
}

// U16 appends a little-endian 16-bit value.
func (w *Writer) U16(v uint16) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a little-endian 32-bit value.
func (w *Writer) U32(v uint32) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian 64-bit value.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian 64-bit value, two's complement.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bytes32 appends a length-prefixed byte string. A payload too long
// for its 32-bit length prefix sets the sticky error instead of
// silently truncating the length.
func (w *Writer) Bytes32(b []byte) {
	if w.err != nil {
		return
	}
	if len(b) > w.maxBlob() {
		w.fail("bytes32: %d-byte value exceeds the %d-byte length-prefix bound", len(b), w.maxBlob())
		return
	}
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string, with the same length bound
// as Bytes32.
func (w *Writer) String(s string) {
	if w.err != nil {
		return
	}
	if len(s) > w.maxBlob() {
		w.fail("string: %d-byte value exceeds the %d-byte length-prefix bound", len(s), w.maxBlob())
		return
	}
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Version appends a component version tag.
func (w *Writer) Version(v uint16) { w.U16(v) }

// Blob appends a length-prefixed sub-stream produced by f. Restores
// read it with Reader.Blob, which bounds all reads to the region. A
// region too long for its length slot sets the sticky error.
func (w *Writer) Blob(f func(*Writer)) {
	if w.err != nil {
		return
	}
	// Reserve the length slot, fill it after f runs.
	at := len(w.buf)
	w.U32(0)
	f(w)
	if w.err != nil {
		return
	}
	if n := len(w.buf) - at - 4; n > w.maxBlob() {
		w.fail("blob: %d-byte region exceeds the %d-byte length-prefix bound", n, w.maxBlob())
		w.buf = w.buf[:at]
		return
	}
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
}

// Reader decodes a snapshot stream. All methods are safe on corrupt
// or truncated input: the first out-of-bounds read sets a sticky
// error and subsequent reads return zero values.
//
// A Reader is a cursor over its input: copying the value forks an
// independent cursor over the same bytes, which lets a decoder check
// a whole region before it commits to anything the region describes.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes (0 after an error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.pos
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Failf sets the reader's sticky error (first failure wins), so
// callers that perform their own semantic validation — per-field
// caps, cross-references — poison the stream the same way an
// out-of-bounds read would.
func (r *Reader) Failf(format string, args ...any) { r.fail(format, args...) }

// Count bounds an element count the input claims: n elements of at
// least each bytes apiece (each > 0) must fit the bytes left. A count
// that does not, or a negative one, fails the reader as an
// "implausible <what> count", so no decoder sizes an allocation on a
// claimed count alone. Count returns n, or 0 once the reader has
// failed (keeping the first error).
func (r *Reader) Count(n, each int, what string) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining()/each {
		r.fail("implausible %s count %d (%d bytes remaining)", what, n, r.Remaining())
		return 0
	}
	return n
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.pos < n {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.pos, len(r.buf))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte as a boolean; values other than 0 and 1 are
// decode errors.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("invalid boolean byte %d", v)
		return false
	}
	return v == 1
}

// U16 reads a little-endian 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian 64-bit value, two's complement.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a 64-bit value as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bytes32 reads a length-prefixed byte string. The result aliases the
// input buffer.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	return r.take(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// Version reads a component version tag and checks it against want.
func (r *Reader) Version(component string, want uint16) {
	got := r.U16()
	if r.err == nil && got != want {
		r.fail("%s: snapshot version %d, this build reads %d", component, got, want)
	}
}

// Blob reads a length-prefixed sub-stream and returns a reader bound
// to it. A sub-reader's decode error does not propagate automatically;
// callers check its Err at the end of the component. On a truncated
// prefix the parent's error is set and the returned reader is empty
// but non-nil.
func (r *Reader) Blob() *Reader {
	b := r.Bytes32()
	if b == nil {
		return &Reader{err: r.err}
	}
	return NewReader(b)
}

// Close verifies the component's region was fully consumed and its
// decode succeeded. Layers call it at the end of RestoreState so
// trailing garbage (a format drift symptom) is detected.
func (r *Reader) Close(component string) error {
	if r.err != nil {
		return fmt.Errorf("%s: %w", component, r.err)
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%s: snap: %d trailing bytes", component, len(r.buf)-r.pos)
	}
	return nil
}
