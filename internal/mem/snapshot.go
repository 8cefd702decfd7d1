package mem

import (
	"fmt"

	"repro/internal/snap"
)

// Checkpoint encoding for the memory subsystem. Each component writes
// its version and dynamic state directly; callers delimit components
// with snap blobs and pass the bounded sub-reader to Restore, which
// consumes it fully. Configuration (sizes, associativity, latencies)
// is not serialized — a restore target is constructed from the same
// config, and the organization is cross-checked so a snapshot cannot
// silently land in a differently-shaped model.

const memSnapVersion = 1

// ramSnapVersion tags the RAM record: version 2 is the page-span
// encoding below. Older records fail the version check.
const ramSnapVersion = 2

// pageSpan returns the bounds [lo, hi) of the first through last
// non-zero byte of p, or ok=false when the page is all zero.
func pageSpan(p *page) (lo, hi int, ok bool) {
	for lo < pageSize && p[lo] == 0 {
		lo++
	}
	if lo == pageSize {
		return 0, 0, false
	}
	hi = pageSize
	for p[hi-1] == 0 {
		hi--
	}
	return lo, hi, true
}

// Snapshot encodes the image as page-span records: the image size, the
// record count, then for each page holding a non-zero byte, in
// ascending order, its index (U32), the offset of its first non-zero
// byte (U16) and the bytes through its last non-zero byte (Bytes32).
// Encoding walks the allocated pages only, and the records are
// canonical: identical images always yield identical bytes.
func (r *RAM) Snapshot(w *snap.Writer) {
	type record struct{ idx, lo, hi int }
	var recs []record
	for i, p := range r.pages {
		if p == nil {
			continue
		}
		if lo, hi, ok := pageSpan(p); ok {
			recs = append(recs, record{i, lo, hi})
		}
	}
	w.Version(ramSnapVersion)
	w.U32(r.size)
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.U32(uint32(rec.idx))
		w.U16(uint16(rec.lo))
		w.Bytes32(r.pages[rec.idx][rec.lo:rec.hi])
	}
}

// readPageSpan reads one page-span record and checks it against the
// image: the index must follow prev and name a page of the image, and
// the span must be non-empty, start and end on non-zero bytes (the
// canonical form), and end inside its page and the image.
func (r *RAM) readPageSpan(rd *snap.Reader, prev int) (idx, off int, data []byte) {
	idx = int(rd.U32())
	off = int(rd.U16())
	data = rd.Bytes32()
	switch {
	case rd.Err() != nil:
	case idx <= prev:
		rd.Failf("page %d follows page %d", idx, prev)
	case idx >= len(r.pages):
		rd.Failf("page %d beyond the image's %d pages", idx, len(r.pages))
	case len(data) == 0:
		rd.Failf("page %d: empty span", idx)
	case data[0] == 0 || data[len(data)-1] == 0:
		rd.Failf("page %d: span has a zero edge (non-canonical)", idx)
	case off+len(data) > pageSize || uint64(idx)*pageSize+uint64(off+len(data)) > uint64(r.size):
		rd.Failf("page %d: span %d+%d runs past the page", idx, off, len(data))
	}
	return idx, off, data
}

// Restore decodes a RAM snapshot into an image of identical size. The
// records are checked in full on a forked cursor before any page is
// touched, so a hostile record fails having allocated nothing and a
// failed restore leaves the image as it was.
func (r *RAM) Restore(rd *snap.Reader) error {
	rd.Version("ram", ramSnapVersion)
	size := rd.U32()
	n := rd.U32()
	if rd.Err() == nil && size != r.size {
		return fmt.Errorf("mem: ram snapshot is %d bytes, image is %d", size, r.size)
	}
	if rd.Err() == nil && uint64(n) > uint64(len(r.pages)) {
		rd.Failf("%d page records for a %d-page image", n, len(r.pages))
	}
	probe := *rd
	for i, prev := uint32(0), -1; i < n && probe.Err() == nil; i++ {
		prev, _, _ = r.readPageSpan(&probe, prev)
	}
	if err := probe.Close("ram"); err != nil {
		return err
	}
	clear(r.pages)
	for i, prev := uint32(0), -1; i < n; i++ {
		idx, off, data := r.readPageSpan(rd, prev)
		p := new(page)
		copy(p[off:], data)
		r.pages[idx], prev = p, idx
	}
	return rd.Close("ram")
}

func (s *CacheStats) snapshot(w *snap.Writer) {
	w.U64(s.Accesses)
	w.U64(s.Hits)
	w.U64(s.Misses)
	w.U64(s.Evictions)
	w.U64(s.Writebacks)
}

func (s *CacheStats) restore(r *snap.Reader) {
	s.Accesses = r.U64()
	s.Hits = r.U64()
	s.Misses = r.U64()
	s.Evictions = r.U64()
	s.Writebacks = r.U64()
}

// Snapshot encodes the cache's line state and statistics.
func (c *Cache) Snapshot(w *snap.Writer) {
	w.Version(memSnapVersion)
	w.Int(c.cfg.Sets)
	w.Int(c.cfg.Ways)
	w.U64(c.tick)
	c.Stats.snapshot(w)
	for _, set := range c.sets {
		for _, ln := range set {
			w.U32(ln.tag)
			w.Bool(ln.valid)
			w.Bool(ln.dirty)
			w.U64(ln.lru)
		}
	}
}

// Restore decodes a cache snapshot into an identically-organized
// cache.
func (c *Cache) Restore(r *snap.Reader) error {
	r.Version("cache "+c.cfg.Name, memSnapVersion)
	sets, ways := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if sets != c.cfg.Sets || ways != c.cfg.Ways {
		return fmt.Errorf("mem: cache %s snapshot is %dx%d, cache is %dx%d",
			c.cfg.Name, sets, ways, c.cfg.Sets, c.cfg.Ways)
	}
	c.tick = r.U64()
	c.Stats.restore(r)
	for _, set := range c.sets {
		for i := range set {
			set[i] = cacheLine{tag: r.U32(), valid: r.Bool(), dirty: r.Bool(), lru: r.U64()}
		}
	}
	return r.Close("cache " + c.cfg.Name)
}

// Snapshot encodes the TLB's resident translations and statistics.
func (t *TLB) Snapshot(w *snap.Writer) {
	w.Version(memSnapVersion)
	w.Int(len(t.entries))
	w.U64(t.tick)
	t.Stats.snapshot(w)
	for _, e := range t.entries {
		w.U32(e.vpn)
		w.Bool(e.valid)
		w.U64(e.lru)
	}
}

// Restore decodes a TLB snapshot into a TLB of identical entry count.
func (t *TLB) Restore(r *snap.Reader) error {
	r.Version("tlb", memSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(t.entries) {
		return fmt.Errorf("mem: tlb snapshot has %d entries, tlb has %d", n, len(t.entries))
	}
	t.tick = r.U64()
	t.Stats.restore(r)
	for i := range t.entries {
		t.entries[i] = tlbEntry{vpn: r.U32(), valid: r.Bool(), lru: r.U64()}
	}
	return r.Close("tlb")
}

// backing returns the hierarchy's FixedLatency backing store by
// walking the lower-level chain, or nil when caches are disabled.
func (h *Hierarchy) backing() *FixedLatency {
	var lv Level
	if h.DCache != nil {
		lv = h.DCache.lower
	} else if h.ICache != nil {
		lv = h.ICache.lower
	}
	for lv != nil {
		switch b := lv.(type) {
		case *FixedLatency:
			return b
		case *Cache:
			lv = b.lower
		default:
			return nil
		}
	}
	return nil
}

// Snapshot encodes every level of the hierarchy, including the shared
// backing store's access count.
func (h *Hierarchy) Snapshot(w *snap.Writer) {
	w.Version(memSnapVersion)
	comps := []struct {
		c *Cache
		t *TLB
	}{{c: h.ICache}, {c: h.DCache}, {c: h.L2}, {t: h.ITLB}, {t: h.DTLB}}
	for _, comp := range comps {
		switch {
		case comp.c != nil:
			w.Bool(true)
			w.Blob(func(w *snap.Writer) { comp.c.Snapshot(w) })
		case comp.t != nil:
			w.Bool(true)
			w.Blob(func(w *snap.Writer) { comp.t.Snapshot(w) })
		default:
			w.Bool(false)
		}
	}
	if b := h.backing(); b != nil {
		w.Bool(true)
		w.U64(b.Accesses)
	} else {
		w.Bool(false)
	}
}

// Restore decodes a hierarchy snapshot into an identically-configured
// hierarchy.
func (h *Hierarchy) Restore(r *snap.Reader) error {
	r.Version("hierarchy", memSnapVersion)
	caches := []*Cache{h.ICache, h.DCache, h.L2}
	names := []string{"icache", "dcache", "l2", "itlb", "dtlb"}
	tlbs := []*TLB{h.ITLB, h.DTLB}
	for i := 0; i < 5; i++ {
		present := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		var want bool
		if i < 3 {
			want = caches[i] != nil
		} else {
			want = tlbs[i-3] != nil
		}
		if present != want {
			return fmt.Errorf("mem: hierarchy snapshot %s presence %v, hierarchy has %v", names[i], present, want)
		}
		if !present {
			continue
		}
		var err error
		if i < 3 {
			err = caches[i].Restore(r.Blob())
		} else {
			err = tlbs[i-3].Restore(r.Blob())
		}
		if err != nil {
			return err
		}
	}
	hasBacking := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	b := h.backing()
	if hasBacking != (b != nil) {
		return fmt.Errorf("mem: hierarchy snapshot backing presence %v, hierarchy has %v", hasBacking, b != nil)
	}
	if hasBacking {
		b.Accesses = r.U64()
	}
	return r.Close("hierarchy")
}
