package snap

import (
	"bytes"
	"testing"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U16(0x1234)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-7)
	w.String("hello")
	w.Bytes32([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Fatalf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.U16(); got != 0x1234 {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes32 = %v", got)
	}
	if err := r.Close("test"); err != nil {
		t.Fatal(err)
	}
}

func TestBlobBounds(t *testing.T) {
	w := NewWriter()
	w.Blob(func(w *Writer) { w.U32(7) })
	w.U32(99)
	r := NewReader(w.Bytes())
	b := r.Blob()
	if got := b.U32(); got != 7 {
		t.Fatalf("blob U32 = %d", got)
	}
	// Reads past the blob's end must fail inside the blob, not leak
	// into the parent stream.
	if b.U32(); b.Err() == nil {
		t.Fatal("read past blob end did not error")
	}
	if got := r.U32(); got != 99 || r.Err() != nil {
		t.Fatalf("parent stream desynchronized: %d, %v", got, r.Err())
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	w := NewWriter()
	w.U32(Magic)
	w.Version(1)
	w.String("component")
	w.Blob(func(w *Writer) {
		w.U64(12345)
		w.Bytes32(make([]byte, 300))
	})
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		r.U32()
		r.Version("t", 1)
		_ = r.String()
		b := r.Blob()
		b.U64()
		b.Bytes32()
		if r.Err() == nil && b.Err() == nil && b.Close("t") == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(full))
		}
	}
}

func TestVersionSkew(t *testing.T) {
	w := NewWriter()
	w.Version(2)
	r := NewReader(w.Bytes())
	r.Version("comp", 1)
	if r.Err() == nil {
		t.Fatal("version skew not detected")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("Bool accepted byte 7")
	}
}

func TestCloseDetectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.U32(1)
	w.U32(2)
	r := NewReader(w.Bytes())
	r.U32()
	if err := r.Close("t"); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

// The Writer mirrors the Reader's sticky-error discipline: a value too
// long for its uint32 length prefix is rejected (instead of silently
// truncating the length via the uint32 cast) and every later write is
// inert, so a failed encode can never produce a stream the
// bounds-checked Reader would misparse.
func TestWriterRejectsOversizedBlobs(t *testing.T) {
	big := make([]byte, 64)
	cases := []struct {
		name  string
		write func(w *Writer)
	}{
		{"Bytes32", func(w *Writer) { w.Bytes32(big) }},
		{"String", func(w *Writer) { w.String(string(big)) }},
		{"Blob", func(w *Writer) { w.Blob(func(w *Writer) { w.Bytes32(big[:16]); w.Bytes32(big[:16]) }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter()
			// A 4 GiB allocation is not CI-friendly; the bound is a
			// field precisely so the overflow path is testable.
			w.MaxBlob = 32
			w.U32(7)
			before := w.Len()
			tc.write(w)
			if w.Err() == nil {
				t.Fatalf("%s accepted a %d-byte value over a %d-byte bound", tc.name, len(big), w.MaxBlob)
			}
			if w.Len() != before {
				t.Fatalf("failed %s left %d bytes in the stream", tc.name, w.Len()-before)
			}
			// Sticky: everything after the failure is a no-op.
			w.U64(1)
			w.Bytes32([]byte{1})
			w.Blob(func(w *Writer) { w.U8(1) })
			if w.Len() != before {
				t.Fatalf("writes after error extended the stream by %d bytes", w.Len()-before)
			}
			// The prefix written before the failure is still intact.
			r := NewReader(w.Bytes())
			if got := r.U32(); got != 7 {
				t.Fatalf("prefix corrupted: U32 = %d", got)
			}
		})
	}
}

func TestWriterUnderBoundStillRoundTrips(t *testing.T) {
	w := NewWriter()
	w.MaxBlob = 32
	w.Bytes32([]byte("ok"))
	w.String("fine")
	w.Blob(func(w *Writer) { w.U32(5) })
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	if got := r.Bytes32(); string(got) != "ok" {
		t.Fatalf("Bytes32 = %q", got)
	}
	if got := r.String(); got != "fine" {
		t.Fatalf("String = %q", got)
	}
	b := r.Blob()
	if got := b.U32(); got != 5 {
		t.Fatalf("Blob U32 = %d", got)
	}
	if err := r.Close("t"); err != nil {
		t.Fatal(err)
	}
}

func TestWriterFailf(t *testing.T) {
	w := NewWriter()
	w.Failf("model state invalid: %d tokens", 3)
	if w.Err() == nil {
		t.Fatal("Failf did not set the sticky error")
	}
	w.U32(1)
	if w.Len() != 0 {
		t.Fatal("write after Failf extended the stream")
	}
}

// TestReaderCopyForksCursor: a copied Reader reads on independently of
// the original, so a decoder can check a region on the copy before
// committing with the original.
func TestReaderCopyForksCursor(t *testing.T) {
	w := NewWriter()
	w.U32(1)
	w.U32(2)
	r := NewReader(w.Bytes())
	probe := *r
	if probe.U32() != 1 || probe.U32() != 2 || probe.U32() != 0 || probe.Err() == nil {
		t.Fatal("probe did not read to a truncation error")
	}
	if r.Err() != nil || r.Remaining() != 8 || r.U32() != 1 {
		t.Fatal("reading the copy moved or poisoned the original")
	}
}
