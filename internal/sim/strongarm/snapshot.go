package strongarm

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/osm"
	"repro/internal/snap"
)

// Full-simulator checkpointing. A snapshot must be taken between
// cycles (never from inside an edge action); Restore targets a fresh
// simulator built with New from the same program and Config. Decode-
// derived operation facts (instruction, operand lists) are re-derived
// from the restored RAM image through the decode cache instead of
// being serialized — program text is immutable in this model.

const simSnapVersion = 1

const simSnapHeader = "sarm"

// Snapshot encodes the complete simulator state.
func (s *Sim) Snapshot() ([]byte, error) {
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

	w.U32(s.fetchPC)
	w.I64(s.redirectUntil)
	w.Bool(s.fetchStop)
	w.U64(s.retired)
	w.U64(s.redirects)
	w.U64(s.brCount)
	w.U64(s.stallCycles)
	if s.execErr != nil {
		w.String(s.execErr.Error())
	} else {
		w.String("")
	}

	w.Int(len(s.director.Machines()))
	for _, m := range s.director.Machines() {
		op, _ := m.Ctx.(*opCtx)
		w.Bool(op != nil)
		if op != nil {
			w.Blob(func(w *snap.Writer) {
				w.U32(op.pc)
				w.U32(op.memAddr)
				w.U32(op.memWords)
				w.U64(op.memLat)
				w.Bool(op.isStore)
				w.Bool(op.isMem)
			})
		}
	}

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
		return fmt.Errorf("strongarm: not a snapshot (magic %#x)", m)
	}
	if h := r.String(); r.Err() == nil && h != simSnapHeader {
		return fmt.Errorf("strongarm: snapshot is for model %q, want %q", h, simSnapHeader)
	}
	r.Version("strongarm sim", simSnapVersion)
	if err := s.ISS.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Hier.Restore(r.Blob()); err != nil {
		return err
	}
	if err := s.Kernel.Restore(r.Blob()); err != nil {
		return err
	}

	s.fetchPC = r.U32()
	s.redirectUntil = r.I64()
	s.fetchStop = r.Bool()
	s.retired = r.U64()
	s.redirects = r.U64()
	s.brCount = r.U64()
	s.stallCycles = r.U64()
	if msg := r.String(); msg != "" {
		s.execErr = errors.New(msg)
	} else {
		s.execErr = nil
	}
	s.enteredE = false

	nm := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	machines := s.director.Machines()
	if nm != len(machines) {
		return fmt.Errorf("strongarm: snapshot has %d machines, model has %d", nm, len(machines))
	}
	for _, m := range machines {
		has := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if !has {
			m.Ctx = nil
			continue
		}
		b := r.Blob()
		op := &opCtx{
			pc:       b.U32(),
			memAddr:  b.U32(),
			memWords: b.U32(),
			memLat:   b.U64(),
			isStore:  b.Bool(),
			isMem:    b.Bool(),
		}
		if err := b.Close("strongarm opctx"); err != nil {
			return err
		}
		if d := s.decode(op.pc); d.ok {
			op.ins, op.decodeOK = d.ins, true
			op.srcs, op.dsts = d.srcs, d.dsts
		}
		m.Ctx = op
	}

	if err := s.director.Restore(r.Blob()); err != nil {
		return err
	}
	return r.Close("strongarm sim")
}

const regFileSnapVersion = 1

// SnapshotState encodes the scoreboard and forwarding times
// (osm.Snapshotter). Writer lists are keyed by machine index, sorted
// for a deterministic byte stream.
func (r *regFile) SnapshotState(c *osm.SnapCtx, w *snap.Writer) {
	w.Version(regFileSnapVersion)
	w.U64(r.cycle)
	for i := range r.pending {
		w.Int(r.pending[i])
		w.U64(r.readyAt[i])
	}
	idxs := make([]int, 0, len(r.writers))
	for m := range r.writers {
		idxs = append(idxs, c.Index(m))
	}
	sort.Ints(idxs)
	w.Int(len(idxs))
	for _, i := range idxs {
		w.Int(i)
		dsts := r.writers[c.Machine(i)]
		w.Int(len(dsts))
		for _, d := range dsts {
			w.Int(d)
		}
	}
}

// RestoreState decodes a scoreboard snapshot (osm.Snapshotter).
func (r *regFile) RestoreState(c *osm.SnapCtx, rd *snap.Reader) error {
	rd.Version("regfile+fwd", regFileSnapVersion)
	r.cycle = rd.U64()
	for i := range r.pending {
		r.pending[i] = rd.Int()
		r.readyAt[i] = rd.U64()
	}
	n := rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if n < 0 || n > rd.Remaining()/16 {
		return fmt.Errorf("regfile+fwd: implausible writer count %d", n)
	}
	r.writers = make(map[*osm.Machine][]int, n)
	for i := 0; i < n; i++ {
		m := c.Machine(rd.Int())
		nd := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if m == nil || nd < 0 || nd > len(r.pending) {
			return fmt.Errorf("regfile+fwd: corrupt writer entry %d", i)
		}
		dsts := make([]int, 0, nd)
		for j := 0; j < nd; j++ {
			dsts = append(dsts, rd.Int())
		}
		r.writers[m] = dsts
	}
	return rd.Close("regfile+fwd")
}
