// Package invariant machine-checks, at simulation time, the formal
// properties the paper claims for the OSM model: token conservation
// (Section 3.2's transaction discipline means every granted token is
// held by exactly one machine, and every held token is recorded by
// its manager), binding consistency (machine↔manager bindings are
// symmetric and die when the operation leaves its machine), scheduler
// equivalence (the event-driven director never leaves a machine with
// a Figure 3 scan-eligible edge asleep) and livelock freedom (no
// machine sits in a non-initial state without transitioning beyond a
// configurable bound).
//
// A Checker installs itself on a Director's per-step hook and costs
// nothing when absent; each violation is a structured diagnostic
// naming the machine, manager and edge involved, and any violation
// aborts Director.Step with an *Error.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/osm"
)

// Kind classifies a violation by the formal property it breaks.
type Kind string

const (
	// Conservation: a token is held by a machine without a matching
	// manager grant (a leak past release/discard), by no machine
	// despite a manager grant, or comes from a manager the director
	// does not know.
	Conservation Kind = "conservation"
	// Binding: a machine↔manager binding is asymmetric or outlived
	// its operation — e.g. a machine resting in its initial state
	// still holds tokens or is still recorded as a grant owner.
	Binding Kind = "binding"
	// Schedule: the event-driven scheduler left a machine asleep even
	// though one of its outgoing edges is satisfiable, i.e. the wake
	// sets are not a superset of the Figure 3 scan-eligible edges.
	Schedule Kind = "schedule"
	// Livelock: a machine sat in a non-initial state without
	// committing a transition for more than the configured bound.
	Livelock Kind = "livelock"
)

// Violation is one structured diagnostic. Fields that do not apply to
// the kind are empty.
type Violation struct {
	// Step is the control step at whose end the violation was
	// observed.
	Step uint64 `json:"step"`
	// Kind names the broken property.
	Kind Kind `json:"kind"`
	// Machine and Manager identify the participants, when known.
	Machine string `json:"machine,omitempty"`
	Manager string `json:"manager,omitempty"`
	// Edge names the satisfiable-but-unscheduled edge of a schedule
	// violation.
	Edge string `json:"edge,omitempty"`
	// Detail is a human-readable account of the mismatch.
	Detail string `json:"detail"`
}

// String renders the violation on one line.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d: %s", v.Step, v.Kind)
	if v.Machine != "" {
		fmt.Fprintf(&b, " machine=%s", v.Machine)
	}
	if v.Manager != "" {
		fmt.Fprintf(&b, " manager=%s", v.Manager)
	}
	if v.Edge != "" {
		fmt.Fprintf(&b, " edge=%s", v.Edge)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	return b.String()
}

// Error aggregates the violations of one check pass. Director.Step
// returns it (via the installed hook) so a violating run aborts at
// the step that broke the invariant, with every co-occurring
// violation attached.
type Error struct {
	Violations []Violation
}

// Error implements error.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "invariant: no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s): ", len(e.Violations))
	for i, v := range e.Violations {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// DefaultLivelockBound is the number of consecutive control steps a
// machine may sit in one non-initial state without transitioning
// before the livelock detector flags it. Both case-study pipelines
// stall for at most a cache miss plus a full drain — tens of cycles —
// so the default is generous while still catching a wedged model long
// before a cycle budget expires.
const DefaultLivelockBound = 100_000

// Checker verifies the OSM invariants of one Director. Construct it
// with New (or Attach, which also installs it); the zero value is not
// usable.
type Checker struct {
	// LivelockBound overrides DefaultLivelockBound when positive.
	LivelockBound uint64
	// Every runs the structural checks (conservation, binding,
	// schedule) only on steps where StepCount%Every == Every-1, i.e.
	// every Every-th step. 0 or 1 checks every step. The livelock
	// watch always runs: it is a per-machine counter comparison.
	Every uint64

	d      *osm.Director
	checks uint64 // structural passes run, for overhead accounting

	// Livelock progress tracking.
	lastMoves map[*osm.Machine]uint64
	stuckAt   map[*osm.Machine]uint64

	// Scratch reused across passes.
	grants map[grantKey]int
}

type grantKey struct {
	owner *osm.Machine
	id    osm.TokenID
}

// New returns a checker bound to d without installing it; use it for
// one-shot CheckNow audits (the osmserve debug endpoint) or install
// it later with Install.
func New(d *osm.Director) *Checker {
	return &Checker{
		d:         d,
		lastMoves: make(map[*osm.Machine]uint64),
		stuckAt:   make(map[*osm.Machine]uint64),
		grants:    make(map[grantKey]int),
	}
}

// Attach returns a new checker installed on d's per-step hook: from
// the next Step on, every control step is verified and a violation
// aborts the run with an *Error.
func Attach(d *osm.Director) *Checker {
	c := New(d)
	c.Install()
	return c
}

// Install sets the checker as d's per-step hook, replacing any
// previous one.
func (c *Checker) Install() { c.d.Check = c.step }

// Checks returns the number of structural check passes run, for
// overhead accounting.
func (c *Checker) Checks() uint64 { return c.checks }

// step is the Director.Check hook: it runs at the end of every
// control step, before the step counter advances.
func (c *Checker) step(d *osm.Director) error {
	var vs []Violation
	if c.Every <= 1 || (d.StepCount()+1)%c.Every == 0 {
		vs = c.structural()
	}
	vs = append(vs, c.livelock()...)
	if len(vs) > 0 {
		return &Error{Violations: vs}
	}
	return nil
}

// CheckNow runs the structural checks (conservation, binding,
// schedule) once and returns the violations found, without touching
// the livelock tracker. It must be called between control steps,
// never from inside an edge action.
func (c *Checker) CheckNow() []Violation { return c.structural() }

// structural runs the conservation, binding and schedule checks over
// the director's current (inter-step) state.
func (c *Checker) structural() []Violation {
	c.checks++
	var vs []Violation
	vs = c.conservation(vs)
	vs = c.schedule(vs)
	return vs
}

// conservation cross-checks every machine's token buffer against
// every auditable manager's grant enumeration, both directions, and
// folds in the binding-consistency checks that fall out of the same
// walk.
func (c *Checker) conservation(vs []Violation) []Violation {
	d := c.d
	step := d.StepCount()
	registered := make(map[osm.TokenManager]bool, len(d.Managers()))
	for _, mgr := range d.Managers() {
		registered[mgr] = true
	}

	// Binding: an idle machine represents no operation, so it must
	// hold nothing. (The director also enforces this at transition
	// time; the checker re-proves it for states reached by Discard,
	// Reset and restore paths.)
	for _, m := range d.Machines() {
		if m.InInitial() && len(m.Tokens()) > 0 {
			vs = append(vs, Violation{
				Step: step, Kind: Binding, Machine: m.Name,
				Manager: m.Tokens()[0].Mgr.Name(),
				Detail: fmt.Sprintf("machine rests in initial state %q but holds %d token(s); bindings must die with the operation",
					m.Initial.Name, len(m.Tokens())),
			})
		}
		for _, t := range m.Tokens() {
			if t.Mgr == nil || !registered[t.Mgr] {
				name := "<nil>"
				if t.Mgr != nil {
					name = t.Mgr.Name()
				}
				vs = append(vs, Violation{
					Step: step, Kind: Conservation, Machine: m.Name, Manager: name,
					Detail: fmt.Sprintf("held token %v comes from a manager not registered with the director", t),
				})
			}
		}
	}

	// Per auditable manager: the multiset of (owner, id) grants the
	// manager reports must equal the multiset of tokens machines hold
	// from it. Managers that report anonymous grants (nil Owner, e.g.
	// the pool manager) are matched by count.
	for _, mgr := range d.Managers() {
		aud, ok := mgr.(osm.GrantAuditor)
		if !ok {
			continue // not enumerable; covered only machine-side
		}
		grants := c.grants
		clear(grants)
		anonymous := 0
		total := 0
		aud.OutstandingGrants(func(g osm.Grant) {
			total++
			if g.Owner == nil {
				anonymous++
				return
			}
			grants[grantKey{owner: g.Owner, id: g.ID}]++
		})
		held := 0
		for _, m := range d.Machines() {
			for _, t := range m.Tokens() {
				if t.Mgr != mgr {
					continue
				}
				held++
				if anonymous > 0 {
					continue // count-only manager
				}
				k := grantKey{owner: m, id: t.ID}
				if grants[k] > 0 {
					grants[k]--
					continue
				}
				vs = append(vs, Violation{
					Step: step, Kind: Conservation, Machine: m.Name, Manager: mgr.Name(),
					Detail: fmt.Sprintf("machine holds token %v but the manager records no matching grant (leaked past release/discard?)", t),
				})
			}
		}
		if anonymous > 0 {
			if held != total {
				vs = append(vs, Violation{
					Step: step, Kind: Conservation, Manager: mgr.Name(),
					Detail: fmt.Sprintf("manager reports %d outstanding grant(s) but machines hold %d token(s) from it", total, held),
				})
			}
			continue
		}
		// Surviving manager-side grants have no holding machine: the
		// binding is asymmetric.
		var orphans []Violation
		for k, n := range grants {
			for ; n > 0; n-- {
				owner := "<nil>"
				idle := false
				if k.owner != nil {
					owner = k.owner.Name
					idle = k.owner.InInitial()
				}
				detail := fmt.Sprintf("manager records grant of token %d to machine %s, but that machine does not hold it", k.id, owner)
				if idle {
					detail = fmt.Sprintf("manager records grant of token %d to machine %s, which rests in its initial state (binding outlived the operation)", k.id, owner)
				}
				orphans = append(orphans, Violation{
					Step: step, Kind: Binding, Machine: owner,
					Manager: mgr.Name(), Detail: detail,
				})
			}
		}
		// Map order is random; sort for deterministic diagnostics.
		sort.Slice(orphans, func(i, j int) bool {
			if orphans[i].Machine != orphans[j].Machine {
				return orphans[i].Machine < orphans[j].Machine
			}
			return orphans[i].Detail < orphans[j].Detail
		})
		vs = append(vs, orphans...)
	}
	return vs
}

// schedule verifies scan equivalence from the event-driven side:
// every machine the scheduler will not evaluate next step must have
// no satisfiable outgoing edge right now. ProbeEdge runs the
// interpreter's own request pass, the one the scan would, and cancels
// it, so the check is side-effect free on conforming managers. Under the scan (or before
// the event scheduler initializes) every machine is evaluated every
// step and the check is vacuous; that includes the case studies'
// default engine, the generated one, so only a director running the
// event or compiled engine exercises it (CI's -engine event legs).
func (c *Checker) schedule(vs []Violation) []Violation {
	d := c.d
	if !d.EventDriven() {
		return vs
	}
	step := d.StepCount()
	for _, m := range d.Machines() {
		if d.WillEvaluate(m) {
			continue
		}
		for _, e := range m.State().Out {
			if m.ProbeEdge(e) {
				vs = append(vs, Violation{
					Step: step, Kind: Schedule, Machine: m.Name, Edge: e.Name,
					Detail: fmt.Sprintf("machine is asleep in state %q but edge %s -> %s is satisfiable: a manager wake was missed",
						m.State().Name, e.From.Name, e.To.Name),
				})
			}
		}
	}
	return vs
}

// livelock flags machines that sit in a non-initial state without
// transitioning for more than the configured bound of consecutive
// steps.
func (c *Checker) livelock() []Violation {
	d := c.d
	bound := c.LivelockBound
	if bound == 0 {
		bound = DefaultLivelockBound
	}
	step := d.StepCount()
	var vs []Violation
	for _, m := range d.Machines() {
		if m.InInitial() {
			// Idle machines wait for work indefinitely; that is rest,
			// not livelock.
			delete(c.lastMoves, m)
			delete(c.stuckAt, m)
			continue
		}
		moves := m.Transitions()
		last, seen := c.lastMoves[m]
		if !seen || moves != last {
			c.lastMoves[m] = moves
			c.stuckAt[m] = step
			continue
		}
		if since := c.stuckAt[m]; step-since >= bound {
			vs = append(vs, Violation{
				Step: step, Kind: Livelock, Machine: m.Name,
				Detail: fmt.Sprintf("machine has sat in state %q for %d steps without a transition (bound %d)",
					m.State().Name, step-since, bound),
			})
			// Re-arm so a continuing run reports again only after
			// another full bound, not every subsequent step.
			c.stuckAt[m] = step
		}
	}
	return vs
}
