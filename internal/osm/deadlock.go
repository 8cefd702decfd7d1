package osm

import (
	"errors"
	"strings"
)

// ErrDeadlock is returned (wrapped) by Director.Step when deadlock
// checking is enabled and a cyclic resource dependency among two or
// more machines is detected. In OSM-based microprocessor models such a
// cycle implies a cyclic pipeline, which occurs only under faulty
// situations, so the director treats it as a pathological condition
// and aborts rather than spinning forever.
var ErrDeadlock = errors.New("osm: scheduling deadlock")

// findWaitCycle builds the wait-for graph from the machines' blocked
// primitives and the managers' holder reports, then searches it for a
// cycle. A machine waits for another when one of its failed Allocate
// primitives names a unit currently held by that other machine.
// Blocked Release and Inquire primitives do not create wait edges:
// they wait on hardware conditions, not on other machines.
func (d *Director) findWaitCycle() []*Machine {
	waits := make(map[*Machine][]*Machine)
	for _, m := range d.machines {
		for _, p := range m.blocked {
			if p.Op != OpAllocate {
				continue
			}
			hr, ok := p.Mgr.(HolderReporter)
			if !ok {
				continue
			}
			holder := hr.Holder(p.id(m))
			if holder != nil && holder != m {
				waits[m] = append(waits[m], holder)
			}
		}
	}
	// Depth-first search over the registration order for determinism.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Machine]int, len(waits))
	var stack []*Machine
	var cycle []*Machine
	var visit func(m *Machine) bool
	visit = func(m *Machine) bool {
		color[m] = grey
		stack = append(stack, m)
		for _, w := range waits[m] {
			switch color[w] {
			case grey:
				// Found a back edge: extract the cycle.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == w {
						break
					}
				}
				// Reverse into wait order.
				for l, r := 0, len(cycle)-1; l < r; l, r = l+1, r-1 {
					cycle[l], cycle[r] = cycle[r], cycle[l]
				}
				return true
			case white:
				if visit(w) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[m] = black
		return false
	}
	for _, m := range d.machines {
		if color[m] == white && len(waits[m]) > 0 {
			if visit(m) {
				return cycle
			}
		}
	}
	return nil
}

func cycleString(cycle []*Machine) string {
	var b strings.Builder
	for i, m := range cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(m.Name)
	}
	b.WriteString(" -> ")
	b.WriteString(cycle[0].Name)
	return b.String()
}
