package iss

import "repro/internal/snap"

const issSnapVersion = 1

func snapshotStats(w *snap.Writer, s *Stats) {
	w.U64(s.Instrs)
	w.U64(s.Loads)
	w.U64(s.Stores)
	w.U64(s.Branches)
	w.U64(s.Mults)
	w.U64(s.Syscalls)
}

func restoreStats(r *snap.Reader, s *Stats) {
	s.Instrs = r.U64()
	s.Loads = r.U64()
	s.Stores = r.U64()
	s.Branches = r.U64()
	s.Mults = r.U64()
	s.Syscalls = r.U64()
}

func snapshotReported(w *snap.Writer, reported []uint32) {
	w.Int(len(reported))
	for _, v := range reported {
		w.U32(v)
	}
}

func restoreReported(r *snap.Reader) []uint32 {
	n := r.Count(r.Int(), 4, "reported-value")
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.U32())
	}
	return out
}

// Snapshot encodes the full functional state: CPU, RAM image,
// statistics and the reported-value log. The decode cache is derived
// (validated against instruction words) and not serialized.
func (s *ARM) Snapshot(w *snap.Writer) {
	w.Version(issSnapVersion)
	w.Blob(s.CPU.Snapshot)
	w.Blob(s.RAM.Snapshot)
	snapshotStats(w, &s.Stats)
	snapshotReported(w, s.Reported)
}

// Restore decodes a functional-state snapshot into an ISS built for
// the same program and memory size.
func (s *ARM) Restore(r *snap.Reader) error {
	r.Version("arm iss", issSnapVersion)
	if err := s.CPU.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.RAM.Restore(r.Blob()); err != nil {
		return err
	}
	restoreStats(r, &s.Stats)
	s.Reported = restoreReported(r)
	return r.Close("arm iss")
}

// Snapshot encodes the full functional state: CPU, RAM image,
// statistics and the reported-value log. The decode cache is derived
// (validated against instruction words) and not serialized.
func (s *PPC) Snapshot(w *snap.Writer) {
	w.Version(issSnapVersion)
	w.Blob(s.CPU.Snapshot)
	w.Blob(s.RAM.Snapshot)
	snapshotStats(w, &s.Stats)
	snapshotReported(w, s.Reported)
}

// Restore decodes a functional-state snapshot into an ISS built for
// the same program and memory size.
func (s *PPC) Restore(r *snap.Reader) error {
	r.Version("ppc iss", issSnapVersion)
	if err := s.CPU.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.RAM.Restore(r.Blob()); err != nil {
		return err
	}
	restoreStats(r, &s.Stats)
	s.Reported = restoreReported(r)
	return r.Close("ppc iss")
}
