package osm

import (
	"fmt"
	"sort"

	"repro/internal/snap"
)

// This file implements deterministic checkpoint/restore for the
// operation layer. The OSM formalism makes full-simulator state finite
// and enumerable: a machine is (current state, operation binding,
// token buffer, age), a token manager is whatever its grant policy
// tracks, and the director adds only its step and age counters. A
// snapshot therefore captures exactly those, in registration order,
// through the versioned snap codec.
//
// Snapshots are taken at control-step boundaries (between two
// Director.Step calls). At a boundary every two-phase transaction has
// committed or cancelled, so no tentative manager state exists, and
// the event-driven scheduler's derived state (wait lists, ready set,
// serve list) is reconstructed rather than persisted: restore fills a
// freshly built director, whose scheduler is not yet initialized, so
// the next step re-evaluates every machine, which commits the
// identical transition schedule — serving a blocked machine is
// side-effect free, and the scan-equivalence argument in
// director_event.go does not depend on the ready set being minimal.
// The differential checkpoint tests in internal/experiments verify
// this trace-for-trace under both schedulers.

// Snapshotter is implemented by token managers whose state must
// survive checkpoint/restore. Director.Snapshot requires it of every
// registered manager: a manager with unsnapshotted state would make
// resumed runs diverge silently, so the director refuses instead.
//
// Both methods are called at control-step boundaries only. Machines
// are referred to through the SnapCtx index so managers never encode
// pointers; RestoreState must fully overwrite the manager's dynamic
// state (the manager was freshly constructed with the same
// configuration).
type Snapshotter interface {
	SnapshotState(c *SnapCtx, w *snap.Writer)
	RestoreState(c *SnapCtx, r *snap.Reader) error
}

// SnapCtx translates between machine pointers and their director
// registration indices during a snapshot or restore.
type SnapCtx struct {
	d      *Director
	idx    map[*Machine]int
	mgrIdx map[TokenManager]int
	states map[*State]map[string]*State
	err    error
}

func (d *Director) snapCtx() *SnapCtx {
	c := &SnapCtx{
		d:      d,
		idx:    make(map[*Machine]int, len(d.machines)),
		mgrIdx: make(map[TokenManager]int, len(d.managers)),
		states: make(map[*State]map[string]*State),
	}
	for i, m := range d.machines {
		c.idx[m] = i
	}
	for i, mgr := range d.managers {
		c.mgrIdx[mgr] = i
	}
	return c
}

func (c *SnapCtx) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("osm: snapshot: "+format, args...)
	}
}

// Err returns the first cross-reference error hit during the
// snapshot or restore.
func (c *SnapCtx) Err() error { return c.err }

// Index returns m's registration index, or -1 for nil. An unregistered
// machine is a model error and poisons the snapshot.
func (c *SnapCtx) Index(m *Machine) int {
	if m == nil {
		return -1
	}
	i, ok := c.idx[m]
	if !ok {
		c.fail("machine %s is not registered with the director", m.Name)
		return -1
	}
	return i
}

// Machine returns the machine registered at index i, or nil for -1.
func (c *SnapCtx) Machine(i int) *Machine {
	if i == -1 {
		return nil
	}
	if i < 0 || i >= len(c.d.machines) {
		c.fail("machine index %d out of range [0,%d)", i, len(c.d.machines))
		return nil
	}
	return c.d.machines[i]
}

// managerIndex returns mgr's registration index; unregistered
// managers poison the snapshot (their tokens could not be restored).
func (c *SnapCtx) managerIndex(mgr TokenManager) int {
	if mgr == nil {
		return -1
	}
	i, ok := c.mgrIdx[mgr]
	if !ok {
		c.fail("manager %s is not registered with the director", mgr.Name())
		return -1
	}
	return i
}

// stateByName resolves a state name in the graph reachable from
// initial, caching the name table per distinct initial state (machines
// of one model share a state graph). Names must be unique within the
// graph.
func (c *SnapCtx) stateByName(initial *State, name string) (*State, error) {
	byName, ok := c.states[initial]
	if !ok {
		byName = make(map[string]*State)
		for _, s := range reachable(initial) {
			if _, dup := byName[s.Name]; dup {
				return nil, fmt.Errorf("osm: snapshot: duplicate state name %q", s.Name)
			}
			byName[s.Name] = s
		}
		c.states[initial] = byName
	}
	s, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("osm: snapshot: unknown state %q", name)
	}
	return s, nil
}

const directorSnapVersion = 1

// Snapshot encodes the director's scheduling position, every
// machine's state and token buffer, and every registered manager's
// state (via Snapshotter) into w. It must be called at a control-step
// boundary. It fails if any registered manager does not implement
// Snapshotter.
func (d *Director) Snapshot(w *snap.Writer) error {
	for _, mgr := range d.managers {
		if _, ok := mgr.(Snapshotter); !ok {
			return fmt.Errorf("osm: snapshot: manager %s does not implement Snapshotter", mgr.Name())
		}
	}
	c := d.snapCtx()
	w.Version(directorSnapVersion)
	w.U64(d.step)
	w.U64(d.nextAge)
	w.Int(len(d.machines))
	for _, m := range d.machines {
		m := m
		w.Blob(func(w *snap.Writer) { m.snapshot(c, w) })
	}
	w.Int(len(d.managers))
	for _, mgr := range d.managers {
		mgr := mgr
		w.String(mgr.Name())
		w.Blob(func(w *snap.Writer) { mgr.(Snapshotter).SnapshotState(c, w) })
	}
	return c.err
}

// Restore decodes a snapshot written by Snapshot into this director,
// which must have been built identically (same machines and managers
// in the same registration order) and not yet stepped. The
// event-driven scheduler initializes on the next step; the restored
// schedule is transition-identical to the uninterrupted run under
// both schedulers.
func (d *Director) Restore(r *snap.Reader) error {
	c := d.snapCtx()
	r.Version("director", directorSnapVersion)
	step, nextAge := r.U64(), r.U64()
	nm := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nm != len(d.machines) {
		return fmt.Errorf("osm: restore: snapshot has %d machines, director has %d", nm, len(d.machines))
	}
	for _, m := range d.machines {
		if err := m.restore(c, r.Blob()); err != nil {
			return err
		}
	}
	nmgr := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nmgr != len(d.managers) {
		return fmt.Errorf("osm: restore: snapshot has %d managers, director has %d", nmgr, len(d.managers))
	}
	for _, mgr := range d.managers {
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if name != mgr.Name() {
			return fmt.Errorf("osm: restore: manager %d is %q in the snapshot, %q in the director", c.mgrIdx[mgr], name, mgr.Name())
		}
		s, ok := mgr.(Snapshotter)
		if !ok {
			return fmt.Errorf("osm: restore: manager %s does not implement Snapshotter", mgr.Name())
		}
		if err := s.RestoreState(c, r.Blob()); err != nil {
			return fmt.Errorf("manager %s: %w", mgr.Name(), err)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if c.err != nil {
		return c.err
	}
	d.step = step
	d.nextAge = nextAge
	return nil
}

func (m *Machine) snapshot(c *SnapCtx, w *snap.Writer) {
	w.String(m.Name)
	w.String(m.cur.Name)
	w.U64(m.Age)
	w.Int(m.Tag)
	w.Int(len(m.tokens))
	for _, t := range m.tokens {
		w.Int(c.managerIndex(t.Mgr))
		w.I64(int64(t.ID))
		w.U64(t.Data)
	}
}

func (m *Machine) restore(c *SnapCtx, r *snap.Reader) error {
	name := r.String()
	stateName := r.String()
	age := r.U64()
	tag := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("machine %s: %w", m.Name, err)
	}
	if name != m.Name {
		return fmt.Errorf("osm: restore: machine is %q in the snapshot, %q in the director", name, m.Name)
	}
	st, err := c.stateByName(m.Initial, stateName)
	if err != nil {
		return fmt.Errorf("machine %s: %w", m.Name, err)
	}
	n = r.Count(n, 24, "token") // a token record is 24 bytes
	toks := make([]Token, 0, n)
	for i := 0; i < n; i++ {
		mi := r.Int()
		id := TokenID(r.I64())
		data := r.U64()
		if err := r.Err(); err != nil {
			return fmt.Errorf("machine %s: %w", m.Name, err)
		}
		var mgr TokenManager
		if mi != -1 {
			if mi < 0 || mi >= len(c.d.managers) {
				return fmt.Errorf("osm: restore: machine %s: token manager index %d out of range", m.Name, mi)
			}
			mgr = c.d.managers[mi]
		}
		toks = append(toks, Token{Mgr: mgr, ID: id, Data: data})
	}
	if err := r.Close("machine " + m.Name); err != nil {
		return err
	}
	m.cur = st
	m.Age = age
	m.Tag = tag
	m.tokens = toks
	return nil
}

// ---- Built-in token manager snapshots ----

const managerSnapVersion = 1

// SnapshotState encodes the pool's occupancy (Snapshotter).
func (p *PoolManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	w.Int(p.capacity)
	w.Int(p.free)
	w.I64(int64(p.seq))
}

// RestoreState decodes a pool snapshot (Snapshotter).
func (p *PoolManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("pool", managerSnapVersion)
	capn, free, seq := r.Int(), r.Int(), TokenID(r.I64())
	if err := r.Close("pool " + p.ManagerName); err != nil {
		return err
	}
	if capn != p.capacity {
		return fmt.Errorf("pool %s: snapshot capacity %d, manager has %d", p.ManagerName, capn, p.capacity)
	}
	if free < 0 || free > p.capacity {
		return fmt.Errorf("pool %s: free count %d out of range [0,%d]", p.ManagerName, free, p.capacity)
	}
	p.free = free
	p.seq = seq
	return nil
}

// SnapshotState encodes the queue's entries in order from the head
// (Snapshotter). The head position inside the ring is normalized
// away: only the logical queue content matters.
func (q *QueueManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	w.Int(q.capacity)
	w.I64(int64(q.seq))
	w.Int(q.n)
	for i := 0; i < q.n; i++ {
		e := q.at(i)
		w.I64(int64(e.id))
		w.Int(c.Index(e.owner))
	}
}

// RestoreState decodes a queue snapshot (Snapshotter).
func (q *QueueManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("queue", managerSnapVersion)
	capn := r.Int()
	seq := TokenID(r.I64())
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if capn != q.capacity {
		return fmt.Errorf("queue %s: snapshot capacity %d, manager has %d", q.ManagerName, capn, q.capacity)
	}
	if n < 0 || n > q.capacity {
		return fmt.Errorf("queue %s: entry count %d out of range [0,%d]", q.ManagerName, n, q.capacity)
	}
	q.n = n
	q.seq = seq
	for i := 0; i < n; i++ {
		id := TokenID(r.I64())
		owner := c.Machine(r.Int())
		q.ring[i] = queueEntry{id: id, owner: owner}
	}
	return r.Close("queue " + q.ManagerName)
}

// SnapshotState encodes values, outstanding update counts and writer
// lists (Snapshotter).
func (f *RegFileManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	w.Int(len(f.vals))
	for i := range f.vals {
		w.U64(f.vals[i])
		w.Int(f.pending[i])
		w.Int(len(f.writers[i]))
		for _, m := range f.writers[i] {
			w.Int(c.Index(m))
		}
	}
}

// RestoreState decodes a register file snapshot (Snapshotter).
func (f *RegFileManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("regfile", managerSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(f.vals) {
		return fmt.Errorf("regfile %s: snapshot has %d registers, manager has %d", f.ManagerName, n, len(f.vals))
	}
	for i := 0; i < n; i++ {
		f.vals[i] = r.U64()
		f.pending[i] = r.Int()
		nw := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if nw < 0 || nw > len(c.d.machines) {
			return fmt.Errorf("regfile %s: r%d writer count %d out of range", f.ManagerName, i, nw)
		}
		ws := make([]*Machine, 0, nw)
		for j := 0; j < nw; j++ {
			ws = append(ws, c.Machine(r.Int()))
		}
		f.writers[i] = ws
	}
	return r.Close("regfile " + f.ManagerName)
}

// SnapshotState encodes unit ownership and busy windows (Snapshotter).
func (u *UnitManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	w.U64(u.step)
	w.Int(len(u.owner))
	for i := range u.owner {
		w.Int(c.Index(u.owner[i]))
		w.U64(u.busyUntil[i])
	}
}

// RestoreState decodes a unit manager snapshot (Snapshotter).
func (u *UnitManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("unit", managerSnapVersion)
	step := r.U64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(u.owner) {
		return fmt.Errorf("unit %s: snapshot has %d units, manager has %d", u.ManagerName, n, len(u.owner))
	}
	for i := 0; i < n; i++ {
		u.owner[i] = c.Machine(r.Int())
		u.busyUntil[i] = r.U64()
	}
	u.step = step
	return r.Close("unit " + u.ManagerName)
}

// SnapshotState encodes live forwarded values, sorted by register for
// a deterministic byte stream (Snapshotter).
func (b *BypassManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	w.U64(b.step)
	regs := make([]int, 0, len(b.entries))
	for reg := range b.entries {
		regs = append(regs, reg)
	}
	sort.Ints(regs)
	w.Int(len(regs))
	for _, reg := range regs {
		e := b.entries[reg]
		w.Int(reg)
		w.U64(e.val)
		w.U64(e.until)
	}
}

// RestoreState decodes a bypass network snapshot (Snapshotter).
func (b *BypassManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("bypass", managerSnapVersion)
	step := r.U64()
	n := r.Count(r.Int(), 24, "entry")
	entries := make(map[int]bypassEntry, n)
	for i := 0; i < n; i++ {
		reg := r.Int()
		val := r.U64()
		until := r.U64()
		entries[reg] = bypassEntry{val: val, until: until}
	}
	if err := r.Close("bypass " + b.ManagerName); err != nil {
		return err
	}
	b.step = step
	b.entries = entries
	return nil
}

// SnapshotState encodes the squash marks, sorted by machine index for
// a deterministic byte stream (Snapshotter).
func (m *ResetManager) SnapshotState(c *SnapCtx, w *snap.Writer) {
	w.Version(managerSnapVersion)
	idxs := make([]int, 0, len(m.marked))
	for mm := range m.marked {
		idxs = append(idxs, c.Index(mm))
	}
	sort.Ints(idxs)
	w.Int(len(idxs))
	for _, i := range idxs {
		w.Int(i)
	}
}

// RestoreState decodes a reset manager snapshot (Snapshotter).
func (m *ResetManager) RestoreState(c *SnapCtx, r *snap.Reader) error {
	r.Version("reset", managerSnapVersion)
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > len(c.d.machines) {
		return fmt.Errorf("reset %s: mark count %d out of range", m.ManagerName, n)
	}
	marked := make(map[*Machine]bool, n)
	for i := 0; i < n; i++ {
		if mm := c.Machine(r.Int()); mm != nil {
			marked[mm] = true
		}
	}
	if err := r.Close("reset " + m.ManagerName); err != nil {
		return err
	}
	m.marked = marked
	return nil
}
