package iss

// decodeCache is a direct-mapped cache of decoded instructions,
// indexed by instruction-word address. Workload inner loops re-visit
// the same addresses millions of times; caching the decode removes
// the field-extraction work from Step's per-instruction hot path. A
// timing model keeps its own fetch-time decodings and executes them
// through StepFetched, which bypasses this cache.
//
// A line is valid only for the exact (address, raw word) pair it was
// filled with, so self-modifying code — or a reloaded RAM image —
// never serves a stale decode: a changed word simply misses and is
// decoded afresh.
type decodeCache[I any] struct {
	lines []decodeLine[I]
	mask  uint32
}

type decodeLine[I any] struct {
	pc    uint32
	word  uint32
	valid bool
	ins   I
}

// maxDecodeLines caps the line count: 4096 lines cover a 16 KiB
// program completely.
const maxDecodeLines = 1 << 12

// DecodeLines returns the line count of a direct-mapped decode table
// for a program of the given word count: the smallest power of two
// that covers it, capped at maxDecodeLines. Direct mapping uses the
// word index modulo the line count, so the contiguous words of a
// program that fits never share a line, and a program that does not
// fit still runs, missing where its words collide. The timing models'
// fetch-time decode tables are sized the same way.
func DecodeLines(words int) int {
	n := 1
	for n < words && n < maxDecodeLines {
		n <<= 1
	}
	return n
}

// newDecodeCache returns a cache of DecodeLines(words) lines.
func newDecodeCache[I any](words int) decodeCache[I] {
	n := DecodeLines(words)
	return decodeCache[I]{lines: make([]decodeLine[I], n), mask: uint32(n - 1)}
}

func (c *decodeCache[I]) lookup(pc, word uint32) (I, bool) {
	ln := &c.lines[(pc>>2)&c.mask]
	if ln.valid && ln.pc == pc && ln.word == word {
		return ln.ins, true
	}
	var zero I
	return zero, false
}

func (c *decodeCache[I]) insert(pc, word uint32, ins I) {
	c.lines[(pc>>2)&c.mask] = decodeLine[I]{pc: pc, word: word, valid: true, ins: ins}
}
