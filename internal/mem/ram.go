// Package mem provides the memory subsystem of the simulation
// framework: paged RAM images with configurable byte order, set-
// associative cache timing models, TLBs and a bus latency model.
//
// In the OSM modeling scheme the memory subsystem does not
// communicate with the operation state machines directly — it is
// modeled purely in the hardware layer (paper Section 4). The cache
// and TLB types here are therefore timing models: data always lives
// in the RAM image; caches answer "how many cycles does this access
// cost?" and keep hit/miss statistics, which the pipeline models turn
// into stage busy time through their token manager interfaces.
package mem

import (
	"encoding/binary"
	"fmt"
)

// ByteOrder selects the endianness of a RAM image.
type ByteOrder int

// Byte orders. The ARM substrate runs little-endian, the PowerPC
// substrate big-endian.
const (
	LittleEndian ByteOrder = iota
	BigEndian
)

// A RAM image allocates backing store, and its snapshot records
// contents, a page at a time.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// RAM is a byte-addressed memory image. It satisfies the Memory
// interfaces of both ISA substrates.
//
// The image is a table of 4 KiB pages, each allocated on the first
// write of a non-zero byte; a nil page reads as zeros. A simulated
// program touches a few pages of a megabyte image, so a resident model
// costs what its program touches. Accesses need not be aligned: one
// that straddles a page edge is assembled byte by byte.
type RAM struct {
	pages []*page
	size  uint32
	big   bool
}

// NewRAM returns a zeroed image of the given size.
func NewRAM(size uint32, order ByteOrder) *RAM {
	n := (uint64(size) + pageMask) >> pageShift
	return &RAM{pages: make([]*page, n), size: size, big: order == BigEndian}
}

// Size returns the image size in bytes.
func (r *RAM) Size() uint32 { return r.size }

// InBounds reports whether the n bytes at addr lie inside the image.
// The sum is taken in 64 bits, so an address near 2^32 cannot wrap
// around the check.
func (r *RAM) InBounds(addr, n uint32) bool {
	return uint64(addr)+uint64(n) <= uint64(r.size)
}

func (r *RAM) check(addr uint32, n uint32) {
	if !r.InBounds(addr, n) {
		r.outOfBounds(addr, n)
	}
}

// outOfBounds panics for an access check refused. It is kept out of
// line so that check stays cheap enough to inline.
//
//go:noinline
func (r *RAM) outOfBounds(addr, n uint32) {
	panic(fmt.Sprintf("mem: access at %#x+%d beyond %#x", addr, n, r.size))
}

// locate returns the page holding the n bytes at addr and their offset
// in it, or ok=false when the access straddles a page edge. The page
// is nil when nothing has been written to it.
func (r *RAM) locate(addr, n uint32) (p *page, off uint32, ok bool) {
	r.check(addr, n)
	off = addr & pageMask
	if off > pageSize-n {
		return nil, 0, false
	}
	return r.pages[addr>>pageShift], off, true
}

// alloc returns the page holding addr, allocating it if need be.
func (r *RAM) alloc(addr uint32) *page {
	p := r.pages[addr>>pageShift]
	if p == nil {
		p = new(page)
		r.pages[addr>>pageShift] = p
	}
	return p
}

// readSlow assembles an n-byte value that straddles a page edge.
func (r *RAM) readSlow(addr, n uint32) uint32 {
	var v uint32
	for i := uint32(0); i < n; i++ {
		b := uint32(r.Read8(addr + i))
		if r.big {
			v = v<<8 | b
		} else {
			v |= b << (8 * i)
		}
	}
	return v
}

// writeSlow stores an n-byte value that straddles a page edge.
func (r *RAM) writeSlow(addr, n, v uint32) {
	for i := uint32(0); i < n; i++ {
		shift := 8 * i
		if r.big {
			shift = 8 * (n - 1 - i)
		}
		r.Write8(addr+i, byte(v>>shift))
	}
}

// Read32 reads a 32-bit word.
func (r *RAM) Read32(addr uint32) uint32 {
	p, off, ok := r.locate(addr, 4)
	switch {
	case !ok:
		return r.readSlow(addr, 4)
	case p == nil:
		return 0
	case r.big:
		return binary.BigEndian.Uint32(p[off:])
	default:
		return binary.LittleEndian.Uint32(p[off:])
	}
}

// Write32 writes a 32-bit word.
func (r *RAM) Write32(addr uint32, v uint32) {
	p, off, ok := r.locate(addr, 4)
	if !ok {
		r.writeSlow(addr, 4, v)
		return
	}
	if p == nil {
		if v == 0 {
			return
		}
		p = r.alloc(addr)
	}
	if r.big {
		binary.BigEndian.PutUint32(p[off:], v)
	} else {
		binary.LittleEndian.PutUint32(p[off:], v)
	}
}

// Read16 reads a 16-bit halfword.
func (r *RAM) Read16(addr uint32) uint16 {
	p, off, ok := r.locate(addr, 2)
	switch {
	case !ok:
		return uint16(r.readSlow(addr, 2))
	case p == nil:
		return 0
	case r.big:
		return binary.BigEndian.Uint16(p[off:])
	default:
		return binary.LittleEndian.Uint16(p[off:])
	}
}

// Write16 writes a 16-bit halfword.
func (r *RAM) Write16(addr uint32, v uint16) {
	p, off, ok := r.locate(addr, 2)
	if !ok {
		r.writeSlow(addr, 2, uint32(v))
		return
	}
	if p == nil {
		if v == 0 {
			return
		}
		p = r.alloc(addr)
	}
	if r.big {
		binary.BigEndian.PutUint16(p[off:], v)
	} else {
		binary.LittleEndian.PutUint16(p[off:], v)
	}
}

// Read8 reads a byte.
func (r *RAM) Read8(addr uint32) byte {
	p, off, _ := r.locate(addr, 1)
	if p == nil {
		return 0
	}
	return p[off]
}

// Write8 writes a byte.
func (r *RAM) Write8(addr uint32, v byte) {
	p, off, _ := r.locate(addr, 1)
	if p == nil {
		if v == 0 {
			return
		}
		p = r.alloc(addr)
	}
	p[off] = v
}

// LoadWords stores a word image starting at org.
func (r *RAM) LoadWords(org uint32, words []uint32) {
	for i, w := range words {
		r.Write32(org+uint32(4*i), w)
	}
}
