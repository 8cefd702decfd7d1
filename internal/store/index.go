package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/snap"
)

// Entry records one stored artifact: the blob for (run, cycle) is the
// concatenation of Chunks in order. Len and Sum describe the whole
// reassembled blob so a restore is verified end to end, not just
// chunk by chunk.
type Entry struct {
	Cycle  uint64
	Len    uint64
	Sum    uint64
	Chunks []ChunkRef
}

// Index format limits. Every bound exists so a hostile index file can
// name at most what the decoder is willing to allocate; the real
// structural check is that each chunk record costs 12 input bytes, so
// claimed counts are always validated against bytes actually present.
const (
	indexHeader     = "osmstore-index"
	indexVersion    = 1
	maxIndexEntries = 1 << 20
)

func indexPath(root, run string) string {
	return filepath.Join(root, runsDirName, run+".idx")
}

// encodeIndex serializes a run's entries behind the versioned snap
// header shared by every on-disk format in this repo.
func encodeIndex(run string, entries []Entry) []byte {
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(indexHeader)
	w.Version(indexVersion)
	w.String(run)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.U64(e.Cycle)
		w.U64(e.Len)
		w.U64(e.Sum)
		w.U32(uint32(len(e.Chunks)))
		for _, c := range e.Chunks {
			w.U64(c.Sum)
			w.U32(c.Len)
		}
	}
	return w.Bytes()
}

// DecodeIndex parses an index file. It is a trust boundary (index
// files live on disk between runs and are fuzzed like every other
// untrusted decoder): all counts are validated against remaining
// input before allocation, chunk lengths against the chunk ceiling,
// and per-entry chunk lengths must add up to the entry's blob length.
func DecodeIndex(data []byte) (run string, entries []Entry, err error) {
	r := snap.NewReader(data)
	if m := r.U32(); r.Err() == nil && m != snap.Magic {
		return "", nil, fmt.Errorf("store index: bad magic %#x", m)
	}
	if h := r.String(); r.Err() == nil && h != indexHeader {
		return "", nil, fmt.Errorf("store index: bad header %q", h)
	}
	r.Version("store index", indexVersion)
	run = r.String()
	n := int(r.U32())
	if n > maxIndexEntries {
		return "", nil, fmt.Errorf("store index: implausible entry count %d", n)
	}
	n = r.Count(n, 28, "store index entry") // cycle+len+sum+count
	if r.Err() != nil {
		return "", nil, r.Err()
	}
	entries = make([]Entry, 0, n)
	var prevCycle uint64
	for i := 0; i < n; i++ {
		var e Entry
		e.Cycle = r.U64()
		e.Len = r.U64()
		e.Sum = r.U64()
		nc := r.Count(int(r.U32()), 12, "store index chunk") // sum+len
		if r.Err() != nil {
			return "", nil, r.Err()
		}
		if i > 0 && e.Cycle <= prevCycle {
			return "", nil, fmt.Errorf("store index: entries not strictly ordered at cycle %d", e.Cycle)
		}
		prevCycle = e.Cycle
		e.Chunks = make([]ChunkRef, 0, nc)
		var total uint64
		for j := 0; j < nc; j++ {
			c := ChunkRef{Sum: r.U64(), Len: r.U32()}
			if r.Err() != nil {
				return "", nil, r.Err()
			}
			if c.Len > maxChunkLen {
				return "", nil, fmt.Errorf("store index: entry %d chunk %d length %d exceeds ceiling", i, j, c.Len)
			}
			total += uint64(c.Len)
			e.Chunks = append(e.Chunks, c)
		}
		if total != e.Len {
			return "", nil, fmt.Errorf("store index: entry %d chunks sum to %d, blob length says %d", i, total, e.Len)
		}
		entries = append(entries, e)
	}
	if err := r.Close("store index"); err != nil {
		return "", nil, err
	}
	return run, entries, nil
}

// loadIndex reads a run's index from disk. A missing file is an empty
// run, not an error.
func loadIndex(root, run string) ([]Entry, error) {
	data, err := os.ReadFile(indexPath(root, run))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	gotRun, entries, err := DecodeIndex(data)
	if err != nil {
		return nil, err
	}
	if gotRun != run {
		return nil, fmt.Errorf("store index for %q names run %q", run, gotRun)
	}
	return entries, nil
}

// findEntry returns the entry with the largest cycle ≤ cycle, or
// ok=false when the run has no checkpoint that early.
func findEntry(entries []Entry, cycle uint64) (Entry, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Cycle > cycle })
	if i == 0 {
		return Entry{}, false
	}
	return entries[i-1], true
}
