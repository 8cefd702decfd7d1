package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/snap"
)

// denseLine and denseCache are the cache model as it was before sets
// kept only their valid lines: every set a Ways-wide array, every line
// with a valid bit. TestCacheMatchesDenseReference holds Cache to it.
type denseLine struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64
}

type denseCache struct {
	cfg   CacheConfig
	lower Level
	sets  [][]denseLine
	tick  uint64
	Stats CacheStats
}

func newDenseCache(cfg CacheConfig, lower Level) *denseCache {
	sets := make([][]denseLine, cfg.Sets)
	for i := range sets {
		sets[i] = make([]denseLine, cfg.Ways)
	}
	return &denseCache{cfg: cfg, lower: lower, sets: sets}
}

func (c *denseCache) Access(addr uint32, write bool) uint64 {
	c.tick++
	c.Stats.Accesses++
	line := addr / uint32(c.cfg.LineBytes)
	set, tag := int(line)&(c.cfg.Sets-1), line/uint32(c.cfg.Sets)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.Stats.Hits++
			lines[i].lru = c.tick
			if write {
				if c.cfg.WriteBack {
					lines[i].dirty = true
					return c.cfg.HitLatency
				}
				return c.cfg.HitLatency + c.lower.Access(addr, true)
			}
			return c.cfg.HitLatency
		}
	}
	c.Stats.Misses++
	if write && !c.cfg.WriteBack {
		return c.cfg.HitLatency + c.lower.Access(addr, true)
	}
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	lat := c.cfg.HitLatency + c.lower.Access(addr, false)
	if lines[victim].valid {
		c.Stats.Evictions++
		if lines[victim].dirty {
			c.Stats.Writebacks++
			lat += c.lower.Access(addr, true)
		}
	}
	lines[victim] = denseLine{tag: tag, valid: true, dirty: write && c.cfg.WriteBack, lru: c.tick}
	return lat
}

func (c *denseCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = denseLine{}
		}
	}
}

func (c *denseCache) snapshot() []byte {
	w := snap.NewWriter()
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
	return w.Bytes()
}

func cacheSnapshot(c *Cache) []byte {
	w := snap.NewWriter()
	c.Snapshot(w)
	return w.Bytes()
}

func cacheRestore(c *Cache, b []byte) error { return c.Restore(snap.NewReader(b)) }

// TestCacheMatchesDenseReference drives random reads, writes and
// flushes through the PPC-750's L1 geometry (8 ways x 128 sets) and
// the StrongARM's (32 ways x 16 and x 8 sets), write-back and
// write-through, against the dense model. Every latency, the
// statistics, the lower level's access count and the snapshot bytes
// must agree. Halfway through, the cache is replaced by a fresh one
// restored from its snapshot, which must carry on identically.
func TestCacheMatchesDenseReference(t *testing.T) {
	const accesses = 40000
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"ppc750", 128, 8}, {"sa-icache", 16, 32}, {"sa-dcache", 8, 32}} {
		for _, wb := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/writeback=%v", g.name, wb), func(t *testing.T) {
				cfg := CacheConfig{Name: g.name, Sets: g.sets, Ways: g.ways, LineBytes: 32, HitLatency: 1, WriteBack: wb}
				lower, denseLower := &FixedLatency{Lat: 20}, &FixedLatency{Lat: 20}
				c, ref := NewCache(cfg, lower), newDenseCache(cfg, denseLower)
				rng := rand.New(rand.NewSource(int64(g.sets*g.ways) + 1))
				// Twice as many distinct lines as the cache holds, with
				// half the accesses re-visiting a recent address: hits,
				// refills of empty ways and LRU evictions all occur.
				span := int64(2 * g.sets * g.ways)
				var recent [64]uint32
				flushes := 0
				for i := 0; i < accesses; i++ {
					if i == accesses/2 {
						restored := NewCache(cfg, lower)
						if err := cacheRestore(restored, cacheSnapshot(c)); err != nil {
							t.Fatal(err)
						}
						c = restored
					}
					if rng.Intn(4000) == 0 {
						c.Flush()
						ref.Flush()
						flushes++
					}
					addr := uint32(rng.Int63n(span))*32 + uint32(rng.Intn(32))
					if rng.Intn(2) == 0 {
						addr = recent[rng.Intn(len(recent))]
					}
					recent[i%len(recent)] = addr
					write := rng.Intn(3) == 0
					if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
						t.Fatalf("access %d (%#x, write %v): latency %d, dense %d", i, addr, write, got, want)
					}
					if c.Stats != ref.Stats || lower.Accesses != denseLower.Accesses {
						t.Fatalf("access %d: stats %+v (lower %d), dense %+v (lower %d)",
							i, c.Stats, lower.Accesses, ref.Stats, denseLower.Accesses)
					}
					if i%997 == 0 || i == accesses-1 {
						if !bytes.Equal(cacheSnapshot(c), ref.snapshot()) {
							t.Fatalf("access %d: snapshot differs from the dense record", i)
						}
					}
				}
				if flushes == 0 || c.Stats.Evictions == 0 || (wb && c.Stats.Writebacks == 0) {
					t.Fatalf("pattern too tame: %d flushes, stats %+v", flushes, c.Stats)
				}
			})
		}
	}
}

// TestCacheSetsHoldValidLines: a cold cache allocates no lines, a set
// grows one line per refill up to Ways, and Flush empties every set.
func TestCacheSetsHoldValidLines(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", Sets: 4, Ways: 2, LineBytes: 16}, &FixedLatency{Lat: 1})
	for i, set := range c.sets {
		if set != nil {
			t.Fatalf("cold set %d holds %d lines", i, len(set))
		}
	}
	for k, want := range []int{1, 2, 2} { // three lines of set 0
		c.Access(uint32(k)*4*16, false)
		if got := len(c.sets[0]); got != want {
			t.Fatalf("after %d refills set 0 holds %d lines, want %d", k+1, got, want)
		}
	}
	c.Flush()
	for i, set := range c.sets {
		if len(set) != 0 {
			t.Fatalf("flushed set %d holds %d lines", i, len(set))
		}
	}
}

// cacheWay is one hand-built way of a cache record.
type cacheWay struct {
	tag          uint32
	valid, dirty bool
	lru          uint64
}

// cacheRecord encodes a record for a sets x ways cache whose ways are
// given in (set, way) order; the rest are written as empty ways.
func cacheRecord(sets, ways int, tick uint64, given ...cacheWay) []byte {
	w := snap.NewWriter()
	w.Version(memSnapVersion)
	w.Int(sets)
	w.Int(ways)
	w.U64(tick)
	(&CacheStats{Accesses: tick, Misses: tick}).snapshot(w)
	for i := 0; i < sets*ways; i++ {
		var l cacheWay
		if i < len(given) {
			l = given[i]
		}
		w.U32(l.tag)
		w.Bool(l.valid)
		w.Bool(l.dirty)
		w.U64(l.lru)
	}
	return w.Bytes()
}

// fuzzCacheConfig is FuzzCacheRestore's cache: small enough for the
// fuzzer to reach every way of every set.
var fuzzCacheConfig = CacheConfig{Name: "fuzz", Sets: 4, Ways: 2, LineBytes: 16, HitLatency: 1, WriteBack: true}

// warmFuzzCache returns the fuzz cache after a fixed access pattern
// that leaves full, partly filled and empty sets and a dirty line.
func warmFuzzCache() *Cache {
	c := NewCache(fuzzCacheConfig, &FixedLatency{Lat: 10})
	for _, a := range []uint32{0x00, 0x40, 0x80, 0x10, 0x24} {
		c.Access(a, a == 0x40)
	}
	return c
}

// fullFuzzCache returns the fuzz cache with every way valid, after
// evictions and write-backs: a state warmFuzzCache does not share.
func fullFuzzCache() *Cache {
	c := NewCache(fuzzCacheConfig, &FixedLatency{Lat: 10})
	for a := uint32(0); a < 0x180; a += 0x10 {
		c.Access(a, a&0x20 != 0)
	}
	return c
}

// TestCacheRestoreRejectsHostileRecords: each record the live model
// cannot produce, or that is cut short, fails to restore and leaves
// the cache as it was.
func TestCacheRestoreRejectsHostileRecords(t *testing.T) {
	const sets, ways = 4, 2
	valid := cacheWay{tag: 3, valid: true, lru: 1}
	good := cacheRecord(sets, ways, 4, valid, cacheWay{tag: 5, valid: true, dirty: true, lru: 2})
	full := cacheSnapshot(fullFuzzCache())
	cases := map[string][]byte{
		"valid-after-invalid": cacheRecord(sets, ways, 4, cacheWay{}, valid),
		"invalid-with-tag":    cacheRecord(sets, ways, 4, valid, cacheWay{tag: 1}),
		"invalid-dirty":       cacheRecord(sets, ways, 4, cacheWay{dirty: true}),
		"invalid-with-lru":    cacheRecord(sets, ways, 4, valid, valid, cacheWay{lru: 9}),
		"geometry-mismatch":   cacheRecord(sets*2, ways, 4),
		"truncated":           good[:len(good)-5],
		"truncated-full":      full[:len(full)-20],
		"trailing-bytes":      append(append([]byte(nil), good...), 0),
		"bad-bool":            bytes.Replace(good, []byte{3, 0, 0, 0, 1}, []byte{3, 0, 0, 0, 2}, 1),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			c := warmFuzzCache()
			before := cacheSnapshot(c)
			if err := cacheRestore(c, in); err == nil {
				t.Fatal("hostile record restored without error")
			}
			if !bytes.Equal(cacheSnapshot(c), before) {
				t.Fatal("failed restore changed the cache")
			}
		})
	}
	c := warmFuzzCache()
	if err := cacheRestore(c, good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cacheSnapshot(c), good) || len(c.sets[0]) != 2 || len(c.sets[1]) != 0 {
		t.Fatalf("restored cache holds sets of %d and %d lines, or re-encodes differently",
			len(c.sets[0]), len(c.sets[1]))
	}
}

// FuzzCacheRestore feeds arbitrary bytes to the cache record decoder:
// a failed restore must leave the cache as it was, and a successful
// one must re-encode to exactly its input.
func FuzzCacheRestore(f *testing.F) {
	full := cacheSnapshot(fullFuzzCache())
	f.Add(full)
	f.Add(full[:len(full)-20])
	f.Add(cacheSnapshot(NewCache(fuzzCacheConfig, &FixedLatency{})))
	f.Add(cacheRecord(4, 2, 2, cacheWay{}, cacheWay{tag: 1, valid: true, lru: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := warmFuzzCache()
		before := cacheSnapshot(c)
		if err := cacheRestore(c, data); err != nil {
			if !bytes.Equal(cacheSnapshot(c), before) {
				t.Fatalf("failed restore (%v) changed the cache", err)
			}
			return
		}
		if again := cacheSnapshot(c); !bytes.Equal(again, data) {
			t.Fatalf("restored %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
