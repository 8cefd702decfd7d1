package de

import (
	"fmt"

	"repro/internal/snap"
)

const kernelSnapVersion = 1

// Snapshot encodes the kernel's clock position. Checkpoints are taken
// between cycles, where the case-study models keep no events in
// flight; an event queue holding closures cannot be serialized, so a
// non-empty queue is an error rather than silent loss.
func (k *Kernel) Snapshot(w *snap.Writer) error {
	if n := k.Pending(); n > 0 {
		return fmt.Errorf("de: snapshot with %d pending events (snapshot only between cycles)", n)
	}
	w.Version(kernelSnapVersion)
	w.U64(k.now)
	w.U64(k.nextEdge)
	w.U64(k.cycle)
	w.U64(k.seq)
	return nil
}

// Restore decodes a kernel snapshot into a fresh kernel (no events
// scheduled, as in a valid snapshot's source). Module and OnEdge
// registrations are untouched.
func (k *Kernel) Restore(r *snap.Reader) error {
	r.Version("kernel", kernelSnapVersion)
	now, nextEdge := r.U64(), r.U64()
	cycle, seq := r.U64(), r.U64()
	if err := r.Close("kernel"); err != nil {
		return err
	}
	k.now, k.nextEdge, k.cycle, k.seq = now, nextEdge, cycle, seq
	return nil
}
