package osm

import "repro/internal/snap"

// Recorder is a Tracer that keeps what a served session reports of
// its transition trace: a ring of the most recent events, the number
// of transitions ever recorded and an order-dependent checksum over
// all of them. Install it with director.Tracer = recorder.
type Recorder struct {
	// Limit bounds the retained history to the most recent Limit
	// events (0 = unlimited). Total and Checksum always cover the
	// whole run.
	Limit int

	events []Event
	start  int // ring start when len(events) == Limit
	total  uint64
	sum    uint64
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
func NewRecorder() *Recorder { return &Recorder{} }

// Transition implements Tracer.
func (r *Recorder) Transition(step uint64, m *Machine, e *Edge) {
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

// recorderVersion versions the SaveState/LoadState encoding.
const recorderVersion = 2

// SaveState serializes the recorder — the whole-run total and
// checksum, then the retained event window in commit order — so a
// session's trace context can travel with its snapshot across a live
// migration. The ring is normalized, so the encoding is
// deterministic.
func (r *Recorder) SaveState(w *snap.Writer) {
	w.Version(recorderVersion)
	w.U64(r.total)
	w.U64(r.sum)
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
}

// LoadState fills a fresh recorder (nothing recorded yet) with a
// saved recording. The retained window is clamped to the recorder's
// own Limit (keeping the most recent events) so a snapshot taken under
// a larger retention restores cleanly into a smaller one; the total
// and checksum are retention-independent and restore exactly. The
// state must fill rd's region: trailing bytes fail the load. On any
// error the recording is unchanged.
func (r *Recorder) LoadState(rd *snap.Reader) error {
	rd.Version("recorder", recorderVersion)
	total := rd.U64()
	sum := rd.U64()
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
	if err := rd.Close("recorder"); err != nil {
		return err
	}
	if r.Limit > 0 && len(evs) > r.Limit {
		evs = evs[len(evs)-r.Limit:]
	}
	r.events = evs
	r.total = total
	r.sum = sum
	return nil
}
