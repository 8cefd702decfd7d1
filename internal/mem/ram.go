// Package mem provides the memory subsystem of the simulation
// framework: flat RAM images with configurable byte order, set-
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

// RAM is a flat byte-addressed memory image. It satisfies the Memory
// interfaces of both ISA substrates.
type RAM struct {
	data  []byte
	order binary.ByteOrder
}

// NewRAM returns a zeroed image of the given size.
func NewRAM(size uint32, order ByteOrder) *RAM {
	r := &RAM{data: make([]byte, size)}
	if order == BigEndian {
		r.order = binary.BigEndian
	} else {
		r.order = binary.LittleEndian
	}
	return r
}

// Size returns the image size in bytes.
func (r *RAM) Size() uint32 { return uint32(len(r.data)) }

// InBounds reports whether the n bytes at addr lie inside the image.
// The sum is taken in 64 bits, so an address near 2^32 cannot wrap
// around the check.
func (r *RAM) InBounds(addr, n uint32) bool {
	return uint64(addr)+uint64(n) <= uint64(len(r.data))
}

func (r *RAM) check(addr uint32, n uint32) {
	if !r.InBounds(addr, n) {
		panic(fmt.Sprintf("mem: access at %#x+%d beyond %#x", addr, n, len(r.data)))
	}
}

// Read32 reads an aligned 32-bit word.
func (r *RAM) Read32(addr uint32) uint32 {
	r.check(addr, 4)
	return r.order.Uint32(r.data[addr:])
}

// Write32 writes an aligned 32-bit word.
func (r *RAM) Write32(addr uint32, v uint32) {
	r.check(addr, 4)
	r.order.PutUint32(r.data[addr:], v)
}

// Read16 reads an aligned 16-bit halfword.
func (r *RAM) Read16(addr uint32) uint16 {
	r.check(addr, 2)
	return r.order.Uint16(r.data[addr:])
}

// Write16 writes an aligned 16-bit halfword.
func (r *RAM) Write16(addr uint32, v uint16) {
	r.check(addr, 2)
	r.order.PutUint16(r.data[addr:], v)
}

// Read8 reads a byte.
func (r *RAM) Read8(addr uint32) byte {
	r.check(addr, 1)
	return r.data[addr]
}

// Write8 writes a byte.
func (r *RAM) Write8(addr uint32, v byte) {
	r.check(addr, 1)
	r.data[addr] = v
}

// LoadWords stores a word image starting at org.
func (r *RAM) LoadWords(org uint32, words []uint32) {
	for i, w := range words {
		r.Write32(org+uint32(4*i), w)
	}
}
