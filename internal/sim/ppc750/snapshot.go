package ppc750

import (
	"errors"
	"fmt"

	"repro/internal/osm"
	"repro/internal/snap"
)

// Full-simulator checkpointing. The 750's dynamic state is as bounded
// as the OSM population: every machine owns one op value, and every
// operation reference — a reservation-station producer or a
// newest-writer entry — is a (machine index, age) pair. A snapshot
// therefore holds exactly Machines op records in registration order,
// whatever the run length. Each record keeps the instruction word the
// op was fetched with; decode-derived facts (instruction, class,
// operand lists, route) are not serialized but decoded again from that
// word, which a store into code may since have replaced in RAM.
// Version 2 records, which re-decoded from RAM, are refused.

const simSnapVersion = 3

const simSnapHeader = "p750"

// writeRef encodes an operation reference.
func writeRef(w *snap.Writer, x ref) {
	w.Int(x.slot)
	w.U64(x.age)
}

// readRef decodes an operation reference into a table of n slots,
// rejecting out-of-range machine indices.
func readRef(r *snap.Reader, n int) (ref, error) {
	x := ref{slot: r.Int(), age: r.U64()}
	if err := r.Err(); err != nil {
		return ref{}, err
	}
	if x.slot < 0 || x.slot >= n {
		return ref{}, fmt.Errorf("machine index %d out of range [0,%d)", x.slot, n)
	}
	return x, nil
}

// Snapshot encodes the complete simulator state.
func (s *Sim) Snapshot() ([]byte, error) {
	pending := 0
	for i := range s.ops {
		if s.ops[i].undoPending {
			pending++
		}
	}
	if pending > 0 {
		return nil, fmt.Errorf("ppc750: snapshot with %d uncommitted rename transactions (snapshot only between cycles)", pending)
	}

	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(simSnapHeader)
	w.Version(simSnapVersion)
	w.Blob(s.ISS.Snapshot)
	w.Blob(s.Hier.Snapshot)
	var kerr error
	w.Blob(func(w *snap.Writer) { kerr = s.Kernel.Snapshot(w) })
	if kerr != nil {
		return nil, kerr
	}
	w.Blob(s.BHT.Snapshot)
	w.Blob(s.BTIC.Snapshot)

	w.U32(s.fetchPC)
	w.Bool(s.fetchStop)
	w.Bool(s.fetchHeld)
	w.U64(s.fetchResumeAt)
	w.U64(s.retired)
	w.U64(s.dispatched)
	w.U64(s.mispredicts)
	if s.execErr != nil {
		w.String(s.execErr.Error())
	} else {
		w.String("")
	}

	w.Blob(func(w *snap.Writer) {
		w.Int(len(s.ops))
		for i := range s.ops {
			o := &s.ops[i]
			w.Blob(func(w *snap.Writer) {
				w.U32(o.pc)
				w.U32(o.word)
				w.U32(o.predictedNext)
				w.U32(o.actualNext)
				w.Bool(o.indirect)
				w.Bool(o.redirect)
				w.U64(o.resultAt)
				w.Int(o.renameBufs)
				w.U64(o.execLat)
				w.U32(o.memAddr)
				w.Bool(o.isMem)
				w.Bool(o.isStore)
				w.Int(o.nDeps)
				for _, d := range o.deps[:o.nDeps] {
					writeRef(w, d)
				}
			})
		}
	})

	var derr error
	w.Blob(func(w *snap.Writer) { derr = s.director.Snapshot(w) })
	if derr != nil {
		return nil, derr
	}
	return w.Bytes(), nil
}

// Restore decodes a snapshot into this simulator, which must have
// been built with New from the same program and configuration and not
// yet stepped.
func (s *Sim) Restore(data []byte) error {
	r := snap.NewReader(data)
	if m := r.U32(); r.Err() == nil && m != snap.Magic {
		return fmt.Errorf("ppc750: not a snapshot (magic %#x)", m)
	}
	if h := r.String(); r.Err() == nil && h != simSnapHeader {
		return fmt.Errorf("ppc750: snapshot is for model %q, want %q", h, simSnapHeader)
	}
	r.Version("ppc750 sim", simSnapVersion)
	if err := r.Err(); err != nil {
		return fmt.Errorf("ppc750: %w", err)
	}
	if err := s.ISS.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Hier.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Kernel.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.BHT.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.BTIC.Restore(r.Blob()); err != nil {
		return err
	}

	s.fetchPC = r.U32()
	s.fetchStop = r.Bool()
	s.fetchHeld = r.Bool()
	s.fetchResumeAt = r.U64()
	s.retired = r.U64()
	s.dispatched = r.U64()
	s.mispredicts = r.U64()
	if msg := r.String(); msg != "" {
		s.execErr = errors.New(msg)
	}

	// Op table: one record per machine, decoded in place.
	tb := r.Blob()
	nOps := tb.Int()
	if err := tb.Err(); err != nil {
		return err
	}
	if nOps != len(s.ops) {
		return fmt.Errorf("ppc750: snapshot has %d op records, model has %d machines", nOps, len(s.ops))
	}
	for i := range s.ops {
		b := tb.Blob()
		o := &s.ops[i]
		o.pc = b.U32()
		o.word = b.U32()
		o.predictedNext = b.U32()
		o.actualNext = b.U32()
		o.indirect = b.Bool()
		o.redirect = b.Bool()
		o.resultAt = b.U64()
		o.renameBufs = b.Int()
		o.execLat = b.U64()
		o.memAddr = b.U32()
		o.isMem = b.Bool()
		o.isStore = b.Bool()
		nd := b.Int()
		if err := b.Err(); err != nil {
			return fmt.Errorf("ppc750: op %d: %w", i, err)
		}
		if nd < 0 || nd > maxSrcs {
			return fmt.Errorf("ppc750: op %d: dep count %d out of range [0,%d]", i, nd, maxSrcs)
		}
		for j := 0; j < nd; j++ {
			d, err := readRef(b, len(s.ops))
			if err != nil {
				return fmt.Errorf("ppc750: op %d dep %d: %w", i, j, err)
			}
			o.deps[j] = d
		}
		o.nDeps = nd
		if err := b.Close(fmt.Sprintf("ppc750 op %d", i)); err != nil {
			return err
		}
		d := &outsideImage
		if s.ISS.RAM.InBounds(o.pc, 4) {
			d = s.decodeWord(o.pc, o.word)
		}
		o.bind(d)
	}
	if err := tb.Close("ppc750 op table"); err != nil {
		return err
	}

	if err := s.director.Restore(r.Blob()); err != nil {
		return err
	}
	return r.Close("ppc750 sim")
}

const bpredSnapVersion = 1

// Snapshot encodes the predictor's counters and statistics.
func (b *BHT) Snapshot(w *snap.Writer) {
	w.Version(bpredSnapVersion)
	w.Int(len(b.counters))
	for _, c := range b.counters {
		w.U8(c)
	}
	w.U64(b.Lookups)
	w.U64(b.Hits)
}

// Restore decodes a BHT snapshot into a table of identical size.
func (b *BHT) Restore(r *snap.Reader) error {
	r.Version("bht", bpredSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(b.counters) {
		return fmt.Errorf("ppc750: bht snapshot has %d entries, table has %d", n, len(b.counters))
	}
	for i := range b.counters {
		b.counters[i] = r.U8()
	}
	b.Lookups = r.U64()
	b.Hits = r.U64()
	return r.Close("bht")
}

// Snapshot encodes the target cache's entries and statistics.
func (b *BTIC) Snapshot(w *snap.Writer) {
	w.Version(bpredSnapVersion)
	w.Int(len(b.tags))
	for i := range b.tags {
		w.U32(b.tags[i])
		w.U32(b.targets[i])
		w.Bool(b.valid[i])
	}
	w.U64(b.Lookups)
	w.U64(b.Hits)
}

// Restore decodes a BTIC snapshot into a cache of identical size.
func (b *BTIC) Restore(r *snap.Reader) error {
	r.Version("btic", bpredSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(b.tags) {
		return fmt.Errorf("ppc750: btic snapshot has %d entries, cache has %d", n, len(b.tags))
	}
	for i := range b.tags {
		b.tags[i] = r.U32()
		b.targets[i] = r.U32()
		b.valid[i] = r.Bool()
	}
	b.Lookups = r.U64()
	b.Hits = r.U64()
	return r.Close("btic")
}

const renamerSnapVersion = 2

// SnapshotState encodes the rename state (osm.Snapshotter).
// Uncommitted transactions were rejected by Sim.Snapshot.
func (r *renamer) SnapshotState(c *osm.SnapCtx, w *snap.Writer) {
	w.Version(renamerSnapVersion)
	w.U64(r.cycle)
	w.Int(len(r.resultTimes))
	for _, at := range r.resultTimes {
		w.U64(at)
	}
	for _, x := range r.lastWriter {
		writeRef(w, x)
	}
	w.Int(r.bufCap)
	w.Int(r.bufUsed)
}

// RestoreState decodes a rename snapshot (osm.Snapshotter).
func (r *renamer) RestoreState(c *osm.SnapCtx, rd *snap.Reader) error {
	rd.Version("regfiles+rename", renamerSnapVersion)
	r.cycle = rd.U64()
	n := rd.Count(rd.Int(), 8, "result") // each result time is 8 bytes
	for i := 0; i < n; i++ {
		r.resultTimes = append(r.resultTimes, rd.U64())
	}
	for i := range r.lastWriter {
		x, err := readRef(rd, len(r.ops))
		if err != nil {
			return fmt.Errorf("regfiles+rename: writer of %d: %w", i, err)
		}
		r.lastWriter[i] = x
	}
	bufCap := rd.Int()
	bufUsed := rd.Int()
	if err := rd.Close("regfiles+rename"); err != nil {
		return err
	}
	if bufCap != r.bufCap {
		return fmt.Errorf("regfiles+rename: snapshot has %d rename buffers, model has %d", bufCap, r.bufCap)
	}
	if bufUsed < 0 || bufUsed > bufCap {
		return fmt.Errorf("regfiles+rename: %d rename buffers in use out of range [0,%d]", bufUsed, bufCap)
	}
	r.bufUsed = bufUsed
	return nil
}
