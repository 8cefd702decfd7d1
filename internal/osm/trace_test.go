package osm

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/snap"
)

func TestRecorderCountsAndHistory(t *testing.T) {
	d, _, _ := twoStage(1)
	rec := NewRecorder()
	d.Tracer = rec
	for i := 0; i < 6; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.EdgeCount("acquire"); got != 3 {
		t.Fatalf("acquire count = %d, want 3", got)
	}
	if got := rec.EdgeCount("retire"); got != 3 {
		t.Fatalf("retire count = %d, want 3", got)
	}
	if got := rec.StateEntries("F"); got != 3 {
		t.Fatalf("F entries = %d, want 3", got)
	}
	if rec.Steps() != 6 {
		t.Fatalf("Steps = %d, want 6", rec.Steps())
	}
	if u := rec.Utilization("F"); u != 0.5 {
		t.Fatalf("F utilization = %v, want 0.5", u)
	}
	evs := rec.Events()
	if len(evs) != 6 || evs[0].Edge != "acquire" || evs[0].To != "F" || evs[0].Machine != "op0" {
		t.Fatalf("history wrong: %+v", evs[:1])
	}
	var b strings.Builder
	rec.Report(&b)
	out := b.String()
	if !strings.Contains(out, "edge acquire") || !strings.Contains(out, "state F") {
		t.Fatalf("report missing entries:\n%s", out)
	}
}

func TestRecorderLimitKeepsMostRecent(t *testing.T) {
	// A bounded history must be a sliding window over the end of the
	// run: statistics cover all 12 steps, the retained events are the
	// last 5, in commit order, and a chained Tracer still sees every
	// transition.
	d, _, _ := twoStage(1)
	rec := NewRecorder()
	rec.Limit = 5
	var chained []uint64
	rec.Next = TracerFunc(func(step uint64, m *Machine, e *Edge) {
		chained = append(chained, step)
	})
	d.Tracer = rec
	const steps = 12
	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// One transition per step in this model.
	if got := rec.EdgeCount("acquire") + rec.EdgeCount("retire"); got != steps {
		t.Fatalf("statistics cover %d transitions, want %d", got, steps)
	}
	if rec.Steps() != steps {
		t.Fatalf("Steps = %d, want %d", rec.Steps(), steps)
	}
	evs := rec.Events()
	if len(evs) != 5 {
		t.Fatalf("history length = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(steps - 5 + i); ev.Step != want {
			t.Fatalf("event %d is from step %d, want %d (oldest must be trimmed)", i, ev.Step, want)
		}
	}
	if len(chained) != steps {
		t.Fatalf("chained tracer saw %d transitions, want %d", len(chained), steps)
	}
	for i, s := range chained {
		if s != uint64(i) {
			t.Fatalf("chained tracer event %d at step %d, want %d", i, s, i)
		}
	}
}

func TestRecorderLimitAndReset(t *testing.T) {
	d, _, _ := twoStage(1)
	rec := NewRecorder()
	rec.Limit = 2
	d.Tracer = rec
	for i := 0; i < 6; i++ {
		d.Step()
	}
	if len(rec.Events()) != 2 {
		t.Fatalf("history length = %d, want limit 2", len(rec.Events()))
	}
	// Counts still cover everything.
	if rec.EdgeCount("acquire") != 3 {
		t.Fatal("limit must not truncate statistics")
	}
	rec.Reset()
	if rec.Steps() != 0 || len(rec.Events()) != 0 || rec.EdgeCount("acquire") != 0 {
		t.Fatal("Reset must clear everything")
	}
	if rec.Utilization("F") != 0 {
		t.Fatal("utilization of an empty recording must be 0")
	}
	if rec.Total() != 0 || rec.Checksum() != 0 {
		t.Fatal("Reset must clear the running digest")
	}
}

// The ring must stay consistent through many full wraparounds, and
// the running checksum/total must be limit-independent: a Limit-3
// recorder and an unbounded one fed the same run agree on Checksum
// and Total even though their retained histories differ.
func TestRecorderRingWraparoundAndChecksum(t *testing.T) {
	run := func(limit int, steps int) *Recorder {
		d, _, _ := twoStage(1)
		rec := NewRecorder()
		rec.Limit = limit
		d.Tracer = rec
		for i := 0; i < steps; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return rec
	}
	const steps = 100 // 100 transitions -> 33+ wraps at Limit 3
	bounded := run(3, steps)
	full := run(0, steps)

	if bounded.Total() != uint64(steps) || full.Total() != uint64(steps) {
		t.Fatalf("totals: bounded %d, full %d, want %d", bounded.Total(), full.Total(), steps)
	}
	if bounded.Checksum() == 0 {
		t.Fatal("checksum of a nonempty recording must be nonzero")
	}
	if bounded.Checksum() != full.Checksum() {
		t.Fatalf("checksum depends on Limit: %#x vs %#x", bounded.Checksum(), full.Checksum())
	}
	evs := bounded.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(steps - 3 + i); ev.Step != want {
			t.Fatalf("event %d from step %d, want %d", i, ev.Step, want)
		}
	}
	// A different-length run must not collide (order/content dependent).
	if run(0, steps-1).Checksum() == full.Checksum() {
		t.Fatal("checksums of different traces collide")
	}
}

func TestRecorderEventsSince(t *testing.T) {
	d, _, _ := twoStage(1)
	rec := NewRecorder()
	rec.Limit = 8
	d.Tracer = rec
	for i := 0; i < 20; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Retained window is steps 12..19.
	if got := rec.EventsSince(0); len(got) != 8 {
		t.Fatalf("EventsSince(0) = %d events, want the full window of 8", len(got))
	}
	got := rec.EventsSince(17)
	if len(got) != 3 {
		t.Fatalf("EventsSince(17) = %d events, want 3", len(got))
	}
	for i, ev := range got {
		if want := uint64(17 + i); ev.Step != want {
			t.Fatalf("event %d from step %d, want %d", i, ev.Step, want)
		}
	}
	if got := rec.EventsSince(100); len(got) != 0 {
		t.Fatalf("EventsSince(future) = %d events, want 0", len(got))
	}
}

// EventsSince boundary semantics on a wrapped ring, driven by raw
// Transition calls so we control the step numbers exactly — including
// several events committing in the same control step, which the
// director-driven tests never produce. With Limit 6 and events at
// steps 10,10,11,12,12,12,13,14 the retained window after wrap is
// [11,12,12,12,13,14]:
//   - since == a step older than the window returns the whole window
//   - since == the oldest retained step returns the whole window
//   - since == a step shared by several events returns all of them
//   - since == the newest step returns exactly the last event
//   - since past the newest returns nothing
func TestRecorderEventsSinceWrapBoundaries(t *testing.T) {
	a, b := &State{Name: "A"}, &State{Name: "B"}
	edge := &Edge{Name: "hop", From: a, To: b}
	m := &Machine{Name: "m0"}
	rec := NewRecorder()
	rec.Limit = 6
	steps := []uint64{10, 10, 11, 12, 12, 12, 13, 14}
	for _, s := range steps {
		rec.Transition(s, m, edge)
	}
	if rec.Total() != uint64(len(steps)) {
		t.Fatalf("Total = %d, want %d", rec.Total(), len(steps))
	}
	window := []uint64{11, 12, 12, 12, 13, 14}
	check := func(since uint64, want []uint64) {
		t.Helper()
		got := rec.EventsSince(since)
		if len(got) != len(want) {
			t.Fatalf("EventsSince(%d) = %d events, want %d", since, len(got), len(want))
		}
		for i, ev := range got {
			if ev.Step != want[i] {
				t.Fatalf("EventsSince(%d)[%d].Step = %d, want %d", since, i, ev.Step, want[i])
			}
		}
	}
	check(0, window)  // since before the window: everything retained
	check(10, window) // step 10 fell out of the ring: same answer
	check(11, window) // exactly the oldest retained step
	check(12, window[1:])
	check(13, window[4:])
	check(14, window[5:]) // exactly the newest step
	check(15, nil)        // past the end
	// The retained window must agree with Events() itself.
	if evs := rec.Events(); len(evs) != len(window) || evs[0].Step != 11 || evs[5].Step != 14 {
		t.Fatalf("Events() window wrong: %+v", evs)
	}
}

// The server streams from a live bounded Recorder chained in front of
// another Tracer while other goroutines read it, all serialized by a
// per-session mutex. This test exercises exactly that access pattern
// under the race detector: one writer stepping the director, several
// readers snapshotting Events/EventsSince/Checksum, lock shared.
func TestRecorderConcurrentReadersChained(t *testing.T) {
	d, _, _ := twoStage(1)
	rec := NewRecorder()
	rec.Limit = 4
	var chainMu sync.Mutex
	chainSeen := 0
	rec.Next = TracerFunc(func(step uint64, m *Machine, e *Edge) {
		chainMu.Lock()
		chainSeen++
		chainMu.Unlock()
	})
	d.Tracer = rec

	var mu sync.Mutex // the session lock
	const steps = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				evs := rec.EventsSince(0)
				if len(evs) > 4 {
					t.Errorf("window exceeds limit: %d", len(evs))
				}
				last := uint64(0)
				for _, ev := range evs {
					if ev.Step < last {
						t.Errorf("events out of order: %d after %d", ev.Step, last)
					}
					last = ev.Step
				}
				_ = rec.Checksum()
				_ = rec.Total()
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < steps; i++ {
		mu.Lock()
		if err := d.Step(); err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if rec.Total() != steps {
		t.Fatalf("recorded %d transitions, want %d", rec.Total(), steps)
	}
	chainMu.Lock()
	defer chainMu.Unlock()
	if chainSeen != steps {
		t.Fatalf("chained tracer saw %d transitions, want %d", chainSeen, steps)
	}
}

// TestRecorderSaveLoadRoundTrip: a saved recording restores with its
// aggregates and window intact and re-encodes byte-identically; a
// recorder with a smaller Limit keeps the most recent events; every
// truncation of the encoding and an implausible event count fail.
func TestRecorderSaveLoadRoundTrip(t *testing.T) {
	d, _, _ := twoStage(2)
	rec := NewRecorder()
	rec.Limit = 4
	d.Tracer = rec
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w := snap.NewWriter()
	rec.SaveState(w)
	enc := w.Bytes()

	got := NewRecorder()
	if err := got.LoadState(snap.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if got.Total() != rec.Total() || got.Checksum() != rec.Checksum() || got.Steps() != rec.Steps() ||
		got.EdgeCount("acquire") != rec.EdgeCount("acquire") || got.StateEntries("F") != rec.StateEntries("F") {
		t.Fatal("aggregates differ after LoadState")
	}
	if !slices.Equal(got.Events(), rec.Events()) {
		t.Fatalf("window %v, want %v", got.Events(), rec.Events())
	}
	again := snap.NewWriter()
	got.SaveState(again)
	if !bytes.Equal(again.Bytes(), enc) {
		t.Fatal("re-encode differs")
	}

	small := NewRecorder()
	small.Limit = 2
	if err := small.LoadState(snap.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if evs := rec.Events(); !slices.Equal(small.Events(), evs[len(evs)-2:]) || small.Total() != rec.Total() {
		t.Fatalf("clamped window %v, want the last two of %v", small.Events(), evs)
	}

	for n := 0; n < len(enc); n++ {
		if NewRecorder().LoadState(snap.NewReader(enc[:n])) == nil {
			t.Fatalf("truncation to %d of %d bytes loaded", n, len(enc))
		}
	}
	hostile := snap.NewWriter()
	hostile.Version(recorderVersion)
	for i := 0; i < 4; i++ {
		hostile.U64(0)
	}
	hostile.Bool(true)
	hostile.U32(1 << 30)
	if err := NewRecorder().LoadState(snap.NewReader(hostile.Bytes())); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible event count: err = %v", err)
	}
}
