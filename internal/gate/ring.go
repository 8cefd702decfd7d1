package gate

import (
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over worker ids. Each member owns
// Replicas virtual points on a 64-bit circle; a key routes to the
// member owning the first point clockwise of the key's hash. Adding
// or removing one member therefore moves only the keys in the arcs
// that member's points cover — about 1/N of the keyspace — which is
// what lets the gateway grow or shrink the fleet without reshuffling
// every session placement (TestRingMinimalDisruption pins this).
//
// Ring is not safe for concurrent use; the Gateway serializes access
// under its own mutex.
type Ring struct {
	replicas int
	members  map[string]bool
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (0 selects the default, 64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// ringHash hashes a key onto the circle: FNV-1a for the string, then
// a splitmix64 finalizer. Raw FNV clusters badly on short, similar
// strings (session ids and vnode labels differ in a few trailing
// characters), which skews placement; the finalizer restores uniform
// dispersion while staying deterministic and dependency-free.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// vnodeHash places one of a member's virtual points: the member's
// base hash advanced by a Weyl step per replica, re-finalized.
func vnodeHash(id string, i int) uint64 {
	return mix64(ringHash(id) + uint64(i)*0x9E3779B97F4A7C15)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Add inserts a member (idempotent).
func (r *Ring) Add(id string) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{vnodeHash(id, i), id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare): deterministic owner order so
		// every gateway resolves the tie the same way.
		return r.points[i].owner < r.points[j].owner
	})
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(id string) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(id string) bool { return r.members[id] }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns the member owning the key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	owners := r.LookupN(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// LookupN returns up to n distinct members in preference order for
// the key: the owner first, then the next distinct members clockwise.
// This is the failover/migration-target order — the key's placement
// moves down this list as members drop out.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}
