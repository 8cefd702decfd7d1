package server

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/store"
)

// Session parking: instead of discarding an idle-evicted session's
// state, the janitor writes its final snapshot to Config.ParkDir so a
// gateway can resurrect the session later on any worker. The park
// directory is an internal/store root, and a park is one store entry:
// the session snapshot, chunked, deduplicated and compressed under
// run = session id, cycle = park cycle. The snapshot names the
// session's spec and trace limit, so nothing else is written beside
// it; the store writes the run index last and atomically, so a
// concurrent reader never observes a torn park. Store chunks left
// unreferenced after a park is consumed are reclaimed by ParkGC
// (`osmstore gc` or the janitor hook).

// ParkMeta describes a parked session's store entry.
type ParkMeta struct {
	Cycle uint64
	// Checksum is the 64-bit FNV-1a digest of the snapshot blob,
	// formatted %016x (BlobChecksum's form); the store verifies the
	// reassembled blob against it.
	Checksum string
}

// BlobChecksum returns the content name of a snapshot blob: its
// 64-bit FNV-1a digest formatted %016x.
func BlobChecksum(blob []byte) string {
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64())
}

// openPark opens the park store and finds a parked session's entry. A
// missing park is a wrapped store.ErrNotFound, so callers can tell
// "never parked" from damage.
func openPark(dir, id string) (*store.Store, ParkMeta, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, ParkMeta{}, err
	}
	entries, err := st.Entries(id)
	if err != nil {
		return nil, ParkMeta{}, fmt.Errorf("park for %s: %w", id, err)
	}
	if len(entries) == 0 {
		return nil, ParkMeta{}, fmt.Errorf("%w: no park for session %s", store.ErrNotFound, id)
	}
	e := entries[len(entries)-1]
	return st, ParkMeta{Cycle: e.Cycle, Checksum: fmt.Sprintf("%016x", e.Sum)}, nil
}

// ReadParkMeta reports a parked session's store entry without reading
// the blob.
func ReadParkMeta(dir, id string) (ParkMeta, error) {
	_, meta, err := openPark(dir, id)
	return meta, err
}

// LoadPark reads a parked session's entry and its snapshot from the
// chunk store, verified against the entry's checksum.
func LoadPark(dir, id string) (ParkMeta, []byte, error) {
	st, meta, err := openPark(dir, id)
	if err != nil {
		return ParkMeta{}, nil, err
	}
	blob, err := st.Get(id, meta.Cycle)
	if err != nil {
		return ParkMeta{}, nil, fmt.Errorf("park blob for %s: %w", id, err)
	}
	return meta, blob, nil
}

// ConsumePark drops a parked session's run from the store index after
// resurrection or deletion; a missing park is an error. The chunks
// themselves stay until the next GC sweep — concurrent readers that
// already hold the entry list can still reassemble — at which point
// anything no other run references is reclaimed.
func ConsumePark(dir, id string) error {
	st, _, err := openPark(dir, id)
	if err != nil {
		return err
	}
	return st.DeleteRun(id)
}

// parkStore lazily opens the chunk store rooted at ParkDir.
func (m *Manager) parkStore() (*store.Store, error) {
	m.storeOnce.Do(func() {
		m.store, m.storeErr = store.Open(m.cfg.ParkDir, store.Options{})
	})
	return m.store, m.storeErr
}

// park writes the evicted session's final snapshot into the ParkDir
// store. The session has already been removed from the table, so no
// new requests can reach it; taking s.mu waits out any quantum still
// running.
func (m *Manager) park(s *Session) error {
	s.mu.Lock()
	data, cycle, err := m.snapshotLocked(s)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	st, err := m.parkStore()
	if err != nil {
		return err
	}
	// A park is the run's only entry: one left by an earlier park that
	// was never consumed must not outlive this one.
	if err := st.DeleteRun(s.ID); err != nil {
		return err
	}
	stats, err := st.Put(s.ID, cycle, data)
	if err != nil {
		return err
	}
	m.Metrics.SessionsParked.Add(1)
	m.logf("session %s: parked at cycle %d (%d bytes, %d/%d chunks new, %d on disk)",
		s.ID, cycle, len(data), stats.NewChunks, stats.Chunks, stats.NewBytes)
	return nil
}

// ParkGCGrace is the janitor's GC grace window: unreferenced store
// files younger than this survive a sweep, protecting parks another
// process is mid-way through writing (workers and gateways share one
// park directory).
const ParkGCGrace = time.Minute

// ParkGC sweeps the ParkDir store: chunks no park references anymore
// (because ConsumePark dropped their run) and stale temp files are
// removed. The janitor calls this periodically; `osmstore gc` is the
// manual form.
func (m *Manager) ParkGC(grace time.Duration) (store.GCStats, error) {
	if m.cfg.ParkDir == "" {
		return store.GCStats{}, nil
	}
	st, err := m.parkStore()
	if err != nil {
		return store.GCStats{}, err
	}
	stats, err := st.GC(store.GCOptions{Grace: grace})
	if err != nil {
		return stats, err
	}
	if stats.SweptChunks > 0 {
		m.logf("park gc: swept %d chunks (%d bytes), %d live chunks",
			stats.SweptChunks, stats.SweptBytes, stats.LiveChunks)
	}
	return stats, nil
}
