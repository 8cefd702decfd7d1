package snap_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/snap"
)

// The RAM image is the snapshot's one large payload, so its record is
// where hostile length claims matter most. These tests keep the names
// of the zero-run ZBytes codec's tests for the page-span record that
// replaced it: the same attacks and the same legitimate extreme, read
// through snap.Reader by mem.RAM.Restore.

const (
	ramSize  = 1 << 20
	pageSize = 4096 // mem's page granularity
	ramPages = ramSize / pageSize
)

// ramHeader starts a version-2 RAM record for a ramSize image claiming
// count page records; callers append the records by hand.
func ramHeader(count uint32) *snap.Writer {
	w := snap.NewWriter()
	w.Version(2)
	w.U32(ramSize)
	w.U32(count)
	return w
}

func ramSnapshot(r *mem.RAM) []byte {
	w := snap.NewWriter()
	r.Snapshot(w)
	return w.Bytes()
}

// TestZBytesHostileHeaderAllocationBounded: a handful of corrupt header
// bytes claiming a giant span or every page of the image must fail to
// restore, leave the image as it was, and allocate less than one page,
// whatever size they claim. The allocation is averaged over repeated
// restores so one-off allocations elsewhere in the process cannot fail
// the test.
func TestZBytesHostileHeaderAllocationBounded(t *testing.T) {
	const giant = 1 << 30
	hostile := map[string]func() *snap.Writer{
		// One record's (index, offset) pair, no span length behind it.
		"truncated-after-pair": func() *snap.Writer {
			w := ramHeader(1)
			w.U32(3)
			w.U16(0)
			return w
		},
		// Every page claimed, no record bytes at all.
		"bare-total": func() *snap.Writer { return ramHeader(ramPages) },
		// A span overshooting its page.
		"run-exceeds-total": func() *snap.Writer {
			w := ramHeader(1)
			w.U32(3)
			w.U16(pageSize - 1)
			w.Bytes32([]byte{1, 1})
			return w
		},
		// A giant span length with no span bytes behind it.
		"missing-literal": func() *snap.Writer {
			w := ramHeader(1)
			w.U32(3)
			w.U16(0)
			w.U32(giant)
			return w
		},
		// Empty spans padding out every page.
		"zero-progress": func() *snap.Writer {
			w := ramHeader(ramPages)
			for i := uint32(0); i < ramPages; i++ {
				w.U32(i)
				w.U16(0)
				w.Bytes32(nil)
			}
			return w
		},
		// A record count beyond the image's pages.
		"over-ceiling": func() *snap.Writer { return ramHeader(1<<31 - 1) },
	}
	for name, build := range hostile {
		t.Run(name, func(t *testing.T) {
			data := build().Bytes()
			r := mem.NewRAM(ramSize, mem.LittleEndian)
			r.Write32(8, 0x01020304)
			before := ramSnapshot(r)
			const runs = 64
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				if r.Restore(snap.NewReader(data)) == nil {
					t.Fatal("corrupt record restored without error")
				}
			}
			runtime.ReadMemStats(&m1)
			if !bytes.Equal(ramSnapshot(r), before) {
				t.Fatal("failed restore changed the image")
			}
			if d := (m1.TotalAlloc - m0.TotalAlloc) / runs; d >= pageSize {
				t.Fatalf("error path allocated %d bytes for a %d-byte input", d, len(data))
			}
		})
	}
}

// TestZBytesValidGiantZeroRun pins the legitimate counterpart: an image
// that is one giant zero run up to its last byte encodes as a single
// one-byte record on the last page, and still restores.
func TestZBytesValidGiantZeroRun(t *testing.T) {
	src := mem.NewRAM(ramSize, mem.LittleEndian)
	src.Write8(ramSize-1, 0xff)
	enc := ramSnapshot(src)
	// A 10-byte header (version, size, count) and one 11-byte record
	// (index, offset, span length, the byte).
	if len(enc) != 21 {
		t.Fatalf("encoded %d bytes, want 21", len(enc))
	}
	dst := mem.NewRAM(ramSize, mem.LittleEndian)
	if err := dst.Restore(snap.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	for a := uint32(0); a < ramSize-1; a++ {
		if b := dst.Read8(a); b != 0 {
			t.Fatalf("byte %#x = %#x, want 0", a, b)
		}
	}
	if b := dst.Read8(ramSize - 1); b != 0xff {
		t.Fatalf("last byte = %#x, want 0xff", b)
	}
}
