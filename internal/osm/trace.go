package osm

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/snap"
)

// Recorder is a Tracer that accumulates a transition history and
// per-state / per-edge statistics — the raw material for pipeline
// diagrams and utilization reports. Install it with
// director.Tracer = recorder (or chain it from another Tracer).
type Recorder struct {
	// Limit bounds the retained history to the most recent Limit
	// events (0 = unlimited). Statistics always cover the whole run.
	Limit int
	// Next, if non-nil, receives every transition after it is
	// recorded, so a bounded Recorder can be chained in front of
	// another Tracer without hiding events from it.
	Next Tracer

	events     []Event
	start      int // ring start when len(events) == Limit
	edgeCount  map[string]uint64
	stateEnter map[string]uint64
	firstStep  uint64
	lastStep   uint64
	any        bool
	total      uint64
	sum        uint64
}

// Event is one recorded transition. The JSON tags are the wire form
// the HTTP trace stream uses.
type Event struct {
	// Step is the control step the transition committed in.
	Step uint64 `json:"step"`
	// Machine is the transitioning machine's name.
	Machine string `json:"machine"`
	// Edge, From and To identify the transition.
	Edge string `json:"edge"`
	From string `json:"from"`
	To   string `json:"to"`
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		edgeCount:  make(map[string]uint64),
		stateEnter: make(map[string]uint64),
	}
}

// Transition implements Tracer.
func (r *Recorder) Transition(step uint64, m *Machine, e *Edge) {
	if !r.any {
		r.firstStep, r.any = step, true
	}
	r.lastStep = step
	r.edgeCount[e.Name]++
	r.stateEnter[e.To.Name]++
	ev := Event{
		Step: step, Machine: m.Name, Edge: e.Name,
		From: e.From.Name, To: e.To.Name,
	}
	r.total++
	r.sum = ev.hash(r.sum)
	if r.Limit == 0 || len(r.events) < r.Limit {
		r.events = append(r.events, ev)
	} else {
		// History is full: overwrite the oldest event so the retained
		// window tracks the end of the run, not its beginning.
		r.events[r.start] = ev
		r.start++
		if r.start == r.Limit {
			r.start = 0
		}
	}
	if r.Next != nil {
		r.Next.Transition(step, m, e)
	}
}

// Events returns the retained history in commit order. With a Limit
// set, these are the most recent Limit events.
func (r *Recorder) Events() []Event {
	if r.start == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// EventsSince returns the retained events with Step >= step, in
// commit order — the incremental form a live trace consumer (such as
// the HTTP trace stream) uses to pick up where it left off. Events
// that fell out of a bounded ring are gone; compare Total against the
// consumed count to detect the gap.
func (r *Recorder) EventsSince(step uint64) []Event {
	all := r.Events()
	// The ring is in commit order, so steps are non-decreasing:
	// binary-search the first index at or past step.
	lo, hi := 0, len(all)
	for lo < hi {
		mid := (lo + hi) / 2
		if all[mid].Step < step {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return all[lo:]
}

// Total returns the number of transitions ever recorded, independent
// of the retention Limit.
func (r *Recorder) Total() uint64 { return r.total }

// Checksum returns an order-dependent FNV-1a digest over every
// transition ever recorded (independent of the retention Limit), so
// two runs can be compared for trace identity without retaining their
// full histories.
func (r *Recorder) Checksum() uint64 { return r.sum }

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// hash folds the event into an FNV-1a running digest.
func (ev *Event) hash(sum uint64) uint64 {
	if sum == 0 {
		sum = fnvOffset
	}
	for i := 0; i < 8; i++ {
		sum = (sum ^ (ev.Step >> (8 * i) & 0xff)) * fnvPrime
	}
	for _, s := range [...]string{ev.Machine, ev.Edge, ev.From, ev.To} {
		for i := 0; i < len(s); i++ {
			sum = (sum ^ uint64(s[i])) * fnvPrime
		}
		sum = (sum ^ 0xff) * fnvPrime // field separator
	}
	return sum
}

// EdgeCount returns how many times the named edge committed.
func (r *Recorder) EdgeCount(edge string) uint64 { return r.edgeCount[edge] }

// StateEntries returns how many times any machine entered the named
// state.
func (r *Recorder) StateEntries(state string) uint64 { return r.stateEnter[state] }

// Steps returns the number of control steps spanned by the recording.
func (r *Recorder) Steps() uint64 {
	if !r.any {
		return 0
	}
	return r.lastStep - r.firstStep + 1
}

// Utilization returns entries-per-step for the named state — for a
// single-unit pipeline stage this is its occupancy utilization.
func (r *Recorder) Utilization(state string) float64 {
	steps := r.Steps()
	if steps == 0 {
		return 0
	}
	return float64(r.stateEnter[state]) / float64(steps)
}

// Report writes a per-edge and per-state summary, sorted by name for
// determinism.
func (r *Recorder) Report(w io.Writer) {
	fmt.Fprintf(w, "steps: %d, transitions: %d\n", r.Steps(), len(r.events))
	var edges []string
	for e := range r.edgeCount {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	for _, e := range edges {
		fmt.Fprintf(w, "  edge %-12s %6d\n", e, r.edgeCount[e])
	}
	var states []string
	for s := range r.stateEnter {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "  state %-11s %6d entries (%.2f/step)\n",
			s, r.stateEnter[s], r.Utilization(s))
	}
}

// recorderVersion versions the SaveState/LoadState encoding.
const recorderVersion = 1

// SaveState serializes the recorder — whole-run aggregates (total,
// checksum, step span, per-edge and per-state counts) plus the
// retained event window in commit order — so a session's trace
// context can travel with its snapshot across a live migration. The
// encoding is deterministic: map keys are sorted, the ring is
// normalized.
func (r *Recorder) SaveState(w *snap.Writer) {
	w.Version(recorderVersion)
	w.U64(r.total)
	w.U64(r.sum)
	w.U64(r.firstStep)
	w.U64(r.lastStep)
	w.Bool(r.any)
	evs := r.Events()
	w.U32(uint32(len(evs)))
	for i := range evs {
		ev := &evs[i]
		w.U64(ev.Step)
		w.String(ev.Machine)
		w.String(ev.Edge)
		w.String(ev.From)
		w.String(ev.To)
	}
	saveCountMap(w, r.edgeCount)
	saveCountMap(w, r.stateEnter)
}

// LoadState fills a fresh recorder (nothing recorded yet) with a
// saved recording. The retained window is clamped to the recorder's
// own Limit (keeping the most recent events) so a snapshot taken under
// a larger retention restores cleanly into a smaller one; aggregates
// are retention-independent and restore exactly. The state must fill
// rd's region: trailing bytes fail the load. On any error the
// recording is unchanged.
func (r *Recorder) LoadState(rd *snap.Reader) error {
	rd.Version("recorder", recorderVersion)
	total := rd.U64()
	sum := rd.U64()
	first := rd.U64()
	last := rd.U64()
	any := rd.Bool()
	n := rd.Count(int(rd.U32()), 8+4*4, "event") // step + four string prefixes
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, Event{
			Step:    rd.U64(),
			Machine: rd.String(),
			Edge:    rd.String(),
			From:    rd.String(),
			To:      rd.String(),
		})
	}
	edgeCount := loadCountMap(rd)
	stateEnter := loadCountMap(rd)
	if err := rd.Close("recorder"); err != nil {
		return err
	}
	if r.Limit > 0 && len(evs) > r.Limit {
		evs = evs[len(evs)-r.Limit:]
	}
	r.events = evs
	r.total = total
	r.sum = sum
	r.firstStep = first
	r.lastStep = last
	r.any = any
	r.edgeCount = edgeCount
	r.stateEnter = stateEnter
	return nil
}

func saveCountMap(w *snap.Writer, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.U64(m[k])
	}
}

func loadCountMap(rd *snap.Reader) map[string]uint64 {
	n := rd.Count(int(rd.U32()), 4+8, "count-map entry") // key prefix + count
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := rd.String()
		m[k] = rd.U64()
	}
	return m
}

// Reset clears the recording.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.start = 0
	r.edgeCount = make(map[string]uint64)
	r.stateEnter = make(map[string]uint64)
	r.any = false
	r.total = 0
	r.sum = 0
}
