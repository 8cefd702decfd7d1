package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// GCOptions configure a sweep.
type GCOptions struct {
	// Grace protects recently written files from the sweep: anything
	// modified within the window is kept even if unreferenced. It
	// covers the race where another process has written chunks but
	// not yet renamed the index that references them, and temp files
	// a writer has not yet renamed into place. 0 sweeps everything
	// unreferenced (tests; offline stores).
	Grace time.Duration
}

// GCStats report what a sweep did.
type GCStats struct {
	LiveChunks  int   // chunk files referenced by some index
	SweptChunks int   // unreferenced chunk files removed
	SweptBytes  int64 // their on-disk bytes
	KeptRecent  int   // unreferenced chunks and temp files spared by the grace window
}

// GC removes every chunk file no run index references — a
// reference-counted sweep with the run indexes as the only roots —
// and the temp files writeAtomic strands when a writer crashes
// before its rename. This is what stops a long-lived worker's park
// directory growing without bound.
//
// Safety rules:
//   - A corrupt or unreadable index aborts the sweep. Its references
//     are unknown, so nothing can be proven dead.
//   - Files younger than Grace are kept regardless (see GCOptions).
func (s *Store) GC(o GCOptions) (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats

	runs, err := s.runsLocked()
	if err != nil {
		return st, err
	}
	live := make(map[ChunkRef]bool)
	for _, run := range runs {
		entries, err := loadIndex(s.root, run)
		if err != nil {
			return st, fmt.Errorf("store gc: index for run %q unreadable, aborting sweep: %w", run, err)
		}
		for _, e := range entries {
			for _, c := range e.Chunks {
				live[c] = true
			}
		}
	}

	cutoff := time.Now().Add(-o.Grace)
	recent := func(path string) bool {
		if o.Grace <= 0 {
			return false
		}
		info, err := os.Stat(path)
		return err == nil && info.ModTime().After(cutoff)
	}

	var sweepErr error
	err = walkChunks(s.root, func(path string, size int64) {
		ref, ok := parseChunkName(filepath.Base(path))
		if ok && live[ref] {
			st.LiveChunks++
			return
		}
		if recent(path) {
			st.KeptRecent++
			return
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			sweepErr = err
			return
		}
		st.SweptChunks++
		st.SweptBytes += size
	})
	if err == nil {
		err = sweepErr
	}
	if err != nil {
		return st, err
	}
	return st, s.sweepTemp(recent, &st)
}

// sweepTemp removes stale writeAtomic temp files from runs/ and each
// chunks/ shard, and from the root, where earlier park layouts wrote
// metadata.
func (s *Store) sweepTemp(recent func(string) bool, st *GCStats) error {
	chunksDir := filepath.Join(s.root, chunksDirName)
	dirs := []string{s.root, filepath.Join(s.root, runsDirName)}
	shards, err := os.ReadDir(chunksDir)
	if err != nil {
		return err
	}
	for _, shard := range shards {
		if shard.IsDir() {
			dirs = append(dirs, filepath.Join(chunksDir, shard.Name()))
		}
	}
	for _, dir := range dirs {
		des, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, de := range des {
			if de.IsDir() || !strings.HasPrefix(de.Name(), tempPrefix) {
				continue
			}
			path := filepath.Join(dir, de.Name())
			if recent(path) {
				st.KeptRecent++
				continue
			}
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// parseChunkName inverts chunkPath's "%016x-%08x.c" naming. Files
// that don't parse are treated as unreferenced (and swept).
func parseChunkName(name string) (ChunkRef, bool) {
	var ref ChunkRef
	stem, ok := strings.CutSuffix(name, ".c")
	if !ok || len(stem) != 25 || stem[16] != '-' {
		return ref, false
	}
	var sum, length uint64
	if _, err := fmt.Sscanf(stem, "%16x-%8x", &sum, &length); err != nil {
		return ref, false
	}
	ref.Sum = sum
	ref.Len = uint32(length)
	return ref, true
}
