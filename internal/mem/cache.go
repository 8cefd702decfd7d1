package mem

import "fmt"

// Level is a stage of the memory hierarchy that can price an access.
// The returned latency is in cycles and includes everything below the
// level.
type Level interface {
	// Access prices one access. Write selects the store path.
	Access(addr uint32, write bool) (latency uint64)
}

// FixedLatency is a constant-latency backing store: a DRAM plus bus
// model with no contention.
type FixedLatency struct {
	// Lat is charged on every access.
	Lat uint64
	// Accesses counts how many accesses reached this level.
	Accesses uint64
}

// Access charges the fixed latency.
func (f *FixedLatency) Access(addr uint32, write bool) uint64 {
	f.Accesses++
	return f.Lat
}

// CacheConfig parameterizes a set-associative cache timing model.
type CacheConfig struct {
	// Name labels the cache in statistics output.
	Name string
	// Sets and Ways define the organization; both must be positive
	// and Sets a power of two.
	Sets, Ways int
	// LineBytes is the line size in bytes (power of two).
	LineBytes int
	// HitLatency is charged on every hit (and added to the refill
	// cost on a miss).
	HitLatency uint64
	// WriteBack selects write-back with write-allocate; otherwise the
	// cache is write-through no-allocate (stores always go to the
	// next level, loads allocate).
	WriteBack bool
}

// CacheStats accumulates access counts.
type CacheStats struct {
	Accesses, Hits, Misses, Evictions, Writebacks uint64
}

// HitRate returns hits per access, or 1 when idle.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type cacheLine struct {
	tag   uint32
	dirty bool
	lru   uint64
}

// Cache is a set-associative cache timing model with true-LRU
// replacement.
//
// Each set holds only its valid lines, in way order: a set is nil
// until its first refill, grows by one line per refill while it has
// fewer than Ways, then replaces its least recently used line, and
// Flush truncates it. This is the dense Ways-wide array exactly, with
// its invalid ways left out: only Flush invalidates, and a refill
// takes the first invalid way, so the valid lines of a set are always
// a prefix of its ways. A program that touches a few dozen lines
// costs a few dozen lines.
type Cache struct {
	cfg   CacheConfig
	lower Level
	sets  [][]cacheLine
	tick  uint64
	// Stats accumulates hit/miss counts.
	Stats CacheStats
}

// NewCache builds a cache backed by lower.
func NewCache(cfg CacheConfig, lower Level) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q: sets %d not a positive power of two", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("mem: cache %q: ways %d not positive", cfg.Name, cfg.Ways))
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q: line size %d not a positive power of two", cfg.Name, cfg.LineBytes))
	}
	return &Cache{cfg: cfg, lower: lower, sets: make([][]cacheLine, cfg.Sets)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint32) (set int, tag uint32) {
	line := addr / uint32(c.cfg.LineBytes)
	return int(line) & (c.cfg.Sets - 1), line / uint32(c.cfg.Sets)
}

// Access prices one access and updates the model state.
func (c *Cache) Access(addr uint32, write bool) uint64 {
	c.tick++
	c.Stats.Accesses++
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].tag == tag {
			c.Stats.Hits++
			lines[i].lru = c.tick
			if write {
				if c.cfg.WriteBack {
					lines[i].dirty = true
					return c.cfg.HitLatency
				}
				// Write-through: the store also pays the lower level.
				return c.cfg.HitLatency + c.lower.Access(addr, true)
			}
			return c.cfg.HitLatency
		}
	}
	c.Stats.Misses++
	if write && !c.cfg.WriteBack {
		// Write-through no-allocate: miss goes straight down.
		return c.cfg.HitLatency + c.lower.Access(addr, true)
	}
	// Refill: fetch the line into a free way, or evict the LRU one.
	lat := c.cfg.HitLatency + c.lower.Access(addr, false)
	fill := cacheLine{tag: tag, dirty: write && c.cfg.WriteBack, lru: c.tick}
	if len(lines) < c.cfg.Ways {
		c.sets[set] = append(lines, fill)
		return lat
	}
	victim := 0
	for i := range lines {
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	c.Stats.Evictions++
	if lines[victim].dirty {
		c.Stats.Writebacks++
		lat += c.lower.Access(addr, true) // write the victim back
	}
	lines[victim] = fill
	return lat
}

// Contains reports whether the address's line is resident (no state
// change) — useful in tests and for warm-up checks.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line, pricing nothing.
func (c *Cache) Flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}
