package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snap"
)

// flatRAM is the reference the paged image is checked against: one
// flat byte slice and a byte order, as RAM was before it was paged.
type flatRAM struct {
	data  []byte
	order binary.ByteOrder
}

func newFlatRAM(size uint32, order ByteOrder) *flatRAM {
	f := &flatRAM{data: make([]byte, size), order: binary.LittleEndian}
	if order == BigEndian {
		f.order = binary.BigEndian
	}
	return f
}

func (f *flatRAM) read(addr, width uint32) uint32 {
	switch width {
	case 1:
		return uint32(f.data[addr])
	case 2:
		return uint32(f.order.Uint16(f.data[addr:]))
	}
	return f.order.Uint32(f.data[addr:])
}

func (f *flatRAM) write(addr, width, v uint32) {
	switch width {
	case 1:
		f.data[addr] = byte(v)
	case 2:
		f.order.PutUint16(f.data[addr:], uint16(v))
	default:
		f.order.PutUint32(f.data[addr:], v)
	}
}

func ramRead(r *RAM, addr, width uint32) uint32 {
	switch width {
	case 1:
		return uint32(r.Read8(addr))
	case 2:
		return uint32(r.Read16(addr))
	}
	return r.Read32(addr)
}

func ramWrite(r *RAM, addr, width, v uint32) {
	switch width {
	case 1:
		r.Write8(addr, byte(v))
	case 2:
		r.Write16(addr, uint16(v))
	default:
		r.Write32(addr, v)
	}
}

// allocated counts the image's allocated pages.
func (r *RAM) allocated() int {
	n := 0
	for _, p := range r.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestRAMMatchesFlatImage drives random 8/16/32-bit reads and writes,
// half of them within four bytes of a page edge, into a paged image
// and the flat reference in both byte orders; every read and the
// final contents must agree. The image ends in a partial page.
func TestRAMMatchesFlatImage(t *testing.T) {
	const size = 5*pageSize + 1000
	for _, order := range []ByteOrder{LittleEndian, BigEndian} {
		rng := rand.New(rand.NewSource(int64(order) + 1))
		r := NewRAM(size, order)
		ref := newFlatRAM(size, order)
		for i := 0; i < 50000; i++ {
			width := []uint32{1, 2, 4}[rng.Intn(3)]
			addr := uint32(rng.Intn(size))
			if rng.Intn(2) == 0 {
				addr = uint32(1+rng.Intn(size/pageSize))*pageSize - 4 + uint32(rng.Intn(8))
			}
			if !r.InBounds(addr, width) {
				continue
			}
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				if rng.Intn(4) == 0 {
					v = 0
				}
				ramWrite(r, addr, width, v)
				ref.write(addr, width, v)
				continue
			}
			if got, want := ramRead(r, addr, width), ref.read(addr, width); got != want {
				t.Fatalf("order %d: %d-byte read at %#x = %#x, reference %#x", order, width, addr, got, want)
			}
		}
		for a := uint32(0); a < size; a++ {
			if r.Read8(a) != ref.data[a] {
				t.Fatalf("order %d: byte %#x = %#x, reference %#x", order, a, r.Read8(a), ref.data[a])
			}
		}
	}
}

// TestRAMPagesAllocateOnNonZeroWrite: reads and zero writes leave an
// image unallocated; the first non-zero byte allocates its page alone,
// and a word straddling a page edge allocates both pages.
func TestRAMPagesAllocateOnNonZeroWrite(t *testing.T) {
	r := NewRAM(1<<20, LittleEndian)
	for a := uint32(0); a < r.Size(); a += 1021 {
		r.Read8(a)
		r.Read16(a &^ 1)
		r.Read32(a &^ 3)
		r.Write32(a&^3, 0)
		r.Write16(a&^1, 0)
		r.Write8(a, 0)
	}
	if n := r.allocated(); n != 0 {
		t.Fatalf("reads and zero writes allocated %d pages", n)
	}
	r.Write8(3*pageSize+7, 1)
	if n := r.allocated(); n != 1 || r.pages[3] == nil {
		t.Fatalf("one byte allocated %d pages", n)
	}
	r.Write32(6*pageSize-2, 0x01020304)
	if n := r.allocated(); n != 3 {
		t.Fatalf("a straddling word left %d pages allocated, want 3", n)
	}
	if got := r.Read32(6*pageSize - 2); got != 0x01020304 {
		t.Fatalf("straddling word reads %#x", got)
	}
}

func ramSnapshot(r *RAM) []byte {
	w := snap.NewWriter()
	r.Snapshot(w)
	return w.Bytes()
}

func ramRestore(r *RAM, b []byte) error { return r.Restore(snap.NewReader(b)) }

// TestRAMSnapshotSkipsZeroedPage: a page written and then cleared
// stays allocated but holds no non-zero byte, so it is not encoded.
func TestRAMSnapshotSkipsZeroedPage(t *testing.T) {
	r := NewRAM(16*pageSize, BigEndian)
	r.Write32(5*pageSize+64, 0xdeadbeef)
	r.Write32(5*pageSize+64, 0)
	if r.allocated() != 1 {
		t.Fatal("cleared page was not allocated")
	}
	if got, want := ramSnapshot(r), ramSnapshot(NewRAM(16*pageSize, BigEndian)); !bytes.Equal(got, want) {
		t.Fatalf("zeroed page encoded: %d bytes, an empty image is %d", len(got), len(want))
	}
}

// fillRAM writes a pattern exercising every span shape: a full page,
// an inner span with zero gaps, single bytes at both page edges, and
// the partial last page.
func fillRAM(r *RAM) {
	for a := uint32(0); a < pageSize; a++ {
		r.Write8(a, byte(a)|1)
	}
	r.Write32(2*pageSize+100, 0x11000022)
	r.Write32(2*pageSize+300, 0x33)
	r.Write8(3*pageSize, 9)
	r.Write8(4*pageSize-1, 9)
	r.Write16(r.Size()-2, 0xabcd)
}

// TestRAMSnapshotRoundTrip: snapshot → restore → snapshot is
// byte-identical, restoring replaces whatever the target held, and
// the spans are as the format says.
func TestRAMSnapshotRoundTrip(t *testing.T) {
	const size = 6*pageSize + 512
	src := NewRAM(size, LittleEndian)
	fillRAM(src)
	enc := ramSnapshot(src)

	dst := NewRAM(size, LittleEndian)
	dst.Write32(5*pageSize, 0xffffffff) // a page the snapshot lacks
	dst.Write32(2*pageSize, 0xffffffff) // stale bytes in a page it has
	if err := ramRestore(dst, enc); err != nil {
		t.Fatal(err)
	}
	if again := ramSnapshot(dst); !bytes.Equal(again, enc) {
		t.Fatal("re-snapshot after restore differs")
	}
	for a := uint32(0); a < size; a++ {
		if dst.Read8(a) != src.Read8(a) {
			t.Fatalf("byte %#x = %#x after restore, want %#x", a, dst.Read8(a), src.Read8(a))
		}
	}
	if dst.pages[5] != nil {
		t.Fatal("restore kept a page the snapshot does not hold")
	}

	rd := snap.NewReader(enc)
	rd.Version("ram", ramSnapVersion)
	if rd.U32() != size || rd.U32() != 4 {
		t.Fatal("header is not (size, 4 records)")
	}
	for _, want := range []struct{ idx, off, n int }{{0, 0, pageSize}, {2, 100, 201}, {3, 0, pageSize}, {6, 510, 2}} {
		idx, off, data := int(rd.U32()), int(rd.U16()), rd.Bytes32()
		if idx != want.idx || off != want.off || len(data) != want.n {
			t.Fatalf("record (%d, %d, %d bytes), want %+v", idx, off, len(data), want)
		}
	}
	if err := rd.Close("ram"); err != nil {
		t.Fatal(err)
	}
}

// spanRecord is one hand-built page-span record.
type spanRecord struct {
	idx  uint32
	off  uint16
	data []byte
}

// ramRecord encodes a RAM record with an explicit count, so hostile
// inputs can claim what they like.
func ramRecord(size, count uint32, recs ...spanRecord) []byte {
	w := snap.NewWriter()
	w.Version(ramSnapVersion)
	w.U32(size)
	w.U32(count)
	for _, rc := range recs {
		w.U32(rc.idx)
		w.U16(rc.off)
		w.Bytes32(rc.data)
	}
	return w.Bytes()
}

// TestRAMRestoreRejectsHostileRecords: each malformed record fails to
// restore, leaves the image as it was, and allocates less than one
// page doing so — the records are checked before a page is touched.
// The allocation is averaged over repeated restores, so one-off
// allocations elsewhere in the process (a pool refill under -race)
// cannot fail the test.
func TestRAMRestoreRejectsHostileRecords(t *testing.T) {
	const size = 4*pageSize + 100 // five pages, the last one partial
	one := []byte{1}
	cases := map[string][]byte{
		"unsorted":         ramRecord(size, 2, spanRecord{2, 0, one}, spanRecord{1, 0, one}),
		"duplicate":        ramRecord(size, 2, spanRecord{1, 0, one}, spanRecord{1, 0, one}),
		"index-past-image": ramRecord(size, 1, spanRecord{5, 0, one}),
		"index-huge":       ramRecord(size, 1, spanRecord{0xffffffff, 0, one}),
		"span-past-page":   ramRecord(size, 1, spanRecord{1, pageSize - 1, []byte{1, 1}}),
		"span-past-image":  ramRecord(size, 1, spanRecord{4, 99, []byte{1, 1}}),
		"offset-huge":      ramRecord(size, 1, spanRecord{1, 0xffff, one}),
		"empty-span":       ramRecord(size, 1, spanRecord{1, 0, nil}),
		"zero-first-byte":  ramRecord(size, 1, spanRecord{1, 0, []byte{0, 1}}),
		"zero-last-byte":   ramRecord(size, 1, spanRecord{1, 0, []byte{1, 0}}),
		"count-over-pages": ramRecord(size, 6),
		"count-over-input": ramRecord(size, 3, spanRecord{1, 0, one}),
		"count-huge":       ramRecord(size, 0xffffffff),
		"size-mismatch":    ramRecord(size+1, 0),
		"trailing-bytes":   append(ramRecord(size, 1, spanRecord{1, 0, one}), 0),
		"span-truncated":   ramRecord(size, 1, spanRecord{1, 0, one})[:20],
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRAM(size, LittleEndian)
			r.Write32(8, 0x01020304)
			before := ramSnapshot(r)
			const runs = 64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				if ramRestore(r, in) == nil {
					t.Fatal("hostile record restored without error")
				}
			}
			runtime.ReadMemStats(&m1)
			if !bytes.Equal(ramSnapshot(r), before) {
				t.Fatal("failed restore changed the image")
			}
			if d := (m1.TotalAlloc - m0.TotalAlloc) / runs; d >= pageSize {
				t.Fatalf("failed restore of %d input bytes allocated %d bytes", len(in), d)
			}
		})
	}
}

// TestRAMRestoreRefusesVersion1: the zero-run flat-image record that
// preceded page spans is refused by its version, naming the component.
func TestRAMRestoreRefusesVersion1(t *testing.T) {
	w := snap.NewWriter()
	w.Version(1)
	w.U32(pageSize)
	w.U32(pageSize) // the v1 zero-run total, then one all-zero run
	w.U32(pageSize)
	w.U32(0)
	err := ramRestore(NewRAM(pageSize, LittleEndian), w.Bytes())
	if err == nil || !strings.Contains(err.Error(), "ram") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 record: err = %v, want a ram version error", err)
	}
}

// fuzzRAMSize is FuzzRAMRestore's image: four pages and a partial one.
const fuzzRAMSize = 4*pageSize + 512

// FuzzRAMRestore feeds arbitrary bytes to the RAM record decoder: a
// failed restore must leave the image as it was, and a successful one
// must re-encode to exactly its input, since the format is canonical.
func FuzzRAMRestore(f *testing.F) {
	full := NewRAM(fuzzRAMSize, LittleEndian)
	fillRAM(full)
	f.Add(ramSnapshot(full))
	f.Add(ramSnapshot(NewRAM(fuzzRAMSize, LittleEndian)))
	f.Add(ramRecord(fuzzRAMSize, 2, spanRecord{2, 0, []byte{1}}, spanRecord{1, 0, []byte{1}}))
	f.Add(ramRecord(fuzzRAMSize, 1, spanRecord{4, 511, []byte{7}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRAM(fuzzRAMSize, LittleEndian)
		r.Write32(2*pageSize+8, 0x01020304)
		before := ramSnapshot(r)
		if err := ramRestore(r, data); err != nil {
			if !bytes.Equal(ramSnapshot(r), before) {
				t.Fatalf("failed restore (%v) changed the image", err)
			}
			return
		}
		if again := ramSnapshot(r); !bytes.Equal(again, data) {
			t.Fatalf("restored %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
