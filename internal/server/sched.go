package server

import (
	"fmt"
	"sync"
	"time"
)

// The run-queue scheduler: step requests become jobs executed in
// bounded quanta by a fixed worker pool, instead of each request
// goroutine driving the simulator itself while holding the session
// mutex for the request's whole duration.
//
// Why: a session that is resident but idle must cost a parked struct
// — no goroutine, no timer, no table scan — and a node hosting tens
// of thousands of sessions must bound its *execution* concurrency to
// the worker pool regardless of how many clients are connected or how
// large their step requests are. Splitting requests into quanta gives
// round-robin fairness (a 50M-cycle request cannot starve a 1-cycle
// peek-step on another session) and gives the scheduler a natural
// admission point: when the queue is full the request is refused
// immediately with backpressure (HTTP 429 / wire NackBackpressure)
// rather than piling up goroutines.
//
// Scheduler states of a session, from the outside:
//
//	idle     no job anywhere; the session is a struct in the table
//	queued   a job referencing it sits in the run queue
//	running  a worker is executing one quantum under s.mu
//
// A job cycles queued → running → queued … until it completes (cycle
// budget reached, program done, deadline exceeded, or simulator
// error), then its waiting request goroutine is released. Correctness
// does not depend on quantum interleaving: each quantum advances the
// model under the session mutex exactly as the old monolithic loop
// did, so a wire- or HTTP-driven run replays the same StepCycle
// sequence and stays byte-identical to an in-process run.

// stepJob is one step request in flight through the scheduler.
type stepJob struct {
	s     *Session
	want  uint64 // total cycles requested (already clamped)
	limit time.Time

	submitted time.Time
	started   bool // first quantum has run (lifecycle checked)

	res  StepResult
	err  error
	done chan struct{}
}

// scheduler owns the run queue and worker pool.
type scheduler struct {
	m *Manager

	// slots is the admission semaphore: one slot per job anywhere in
	// the scheduler (queued or running). Its capacity equals the run
	// queue's, so a job holding a slot can always be (re)enqueued
	// without blocking.
	slots chan struct{}
	runq  chan *stepJob

	stop chan struct{}
	wg   sync.WaitGroup
}

func newScheduler(m *Manager, workers int, queue int) *scheduler {
	sc := &scheduler{
		m:     m,
		slots: make(chan struct{}, queue),
		runq:  make(chan *stepJob, queue),
		stop:  make(chan struct{}),
	}
	sc.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go sc.worker()
	}
	return sc
}

// depth reports the number of jobs in flight (queued or running) —
// the osmserve_step_queue_depth gauge.
func (sc *scheduler) depth() int { return len(sc.slots) }

// submit admits a job or refuses it with backpressure. It never
// blocks: a full queue is load shedding, not a wait.
func (sc *scheduler) submit(j *stepJob) error {
	select {
	case sc.slots <- struct{}{}:
	default:
		sc.m.Metrics.StepsRejected.Add(1)
		return ErrOverloaded
	}
	select {
	case <-sc.stop:
		<-sc.slots
		return ErrDraining
	default:
	}
	j.submitted = time.Now()
	sc.runq <- j // cannot block: the job holds a slot
	return nil
}

// close stops the workers and fails every queued job. Jobs currently
// executing a quantum finish that quantum and are then failed on
// requeue.
func (sc *scheduler) close() {
	close(sc.stop)
	sc.wg.Wait()
	for {
		select {
		case j := <-sc.runq:
			j.err = ErrDraining
			sc.finish(j)
		default:
			return
		}
	}
}

func (sc *scheduler) worker() {
	defer sc.wg.Done()
	for {
		select {
		case <-sc.stop:
			return
		case j := <-sc.runq:
			if sc.quantumRun(j) {
				sc.finish(j)
				continue
			}
			select {
			case <-sc.stop:
				j.err = ErrDraining
				sc.finish(j)
			case sc.runq <- j: // holds its slot; never blocks
			}
		}
	}
}

// finish completes the job: shared-plane metrics, the session's
// cycles-stepped mirror, and the requester's wakeup. Both protocol
// planes converge here, which is what lets the mixed-protocol load
// test reconcile /metrics exactly.
func (sc *scheduler) finish(j *stepJob) {
	m := sc.m.Metrics
	m.StepRequests.Add(1)
	m.Cycles.Add(j.res.Stepped)
	m.StepLatency.Observe(time.Since(j.submitted).Seconds())
	if j.res.Stepped > 0 {
		j.s.meta.Lock()
		j.s.meta.cyclesStepped += j.res.Stepped
		j.s.meta.Unlock()
	}
	close(j.done)
	<-sc.slots // release the admission slot last: depth() counts this job until it is fully retired
}

// quantumRun executes one quantum of the job under the session mutex
// and reports whether the job is complete. A panic in the simulator (a
// bad program can drive the memory model out of bounds) is isolated
// the way the protocol planes isolate a request's: counted, the
// session poisoned, and the job finished with an explicit error, so
// the worker and every other session keep running.
func (sc *scheduler) quantumRun(j *stepJob) (completed bool) {
	sc.m.Metrics.StepQuanta.Add(1)
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() { // runs before the unlock: poison needs s.mu
		if p := recover(); p != nil {
			sc.m.Metrics.Panics.Add(1)
			sc.m.logf("panic stepping session %s: %v", s.ID, p)
			err := fmt.Errorf("step panic: %v", p)
			s.poison(err)
			j.res.Cycle = s.inst.Cycle()
			j.res.State = StateBroken
			j.err = fmt.Errorf("%w: %v", ErrConflict, err)
			completed = true
		}
	}()

	if !j.started {
		// StateRunning is admissible here: a second step request on a
		// session whose first request is still cycling used to queue
		// on the session mutex, so the scheduler queues it too (their
		// quanta interleave; each job keeps its own cycle budget).
		if err := s.stepable(); err != nil {
			j.err = err
			return true
		}
		j.started = true
		s.meta.Lock()
		s.meta.state = StateRunning
		s.meta.lastUsed = time.Now()
		s.meta.Unlock()
	} else {
		// Mid-flight recheck: another job may have poisoned the
		// session, or it may have been evicted, between our quanta.
		s.meta.Lock()
		st := s.meta.state
		s.meta.Unlock()
		if st == StateBroken || st == StateEvicted {
			j.err = fmt.Errorf("%w: session is %s", ErrConflict, st)
			return true
		}
	}

	// The deadline is polled on a geometric ramp within the quantum —
	// after cycle 1, 2, 4, 8, … then every 1024 cycles — so even a
	// pathologically slow model overruns its deadline by at most one
	// doubling, while a fast model pays a handful of clock reads per
	// quantum.
	const rampCap = 1024
	budget := j.want - j.res.Stepped
	if budget > stepQuantum {
		budget = stepQuantum
	}
	var ran, next uint64 = 0, 1
	for ran < budget && !s.inst.Done() {
		if ran >= next {
			next = ran + min(ran, rampCap)
			if time.Now().After(j.limit) {
				j.res.DeadlineExceeded = true
				break
			}
		}
		if err := s.inst.StepCycle(); err != nil {
			j.res.Stepped++
			s.poison(err)
			j.res.Cycle = s.inst.Cycle()
			j.res.State = StateBroken
			j.err = fmt.Errorf("%w: %v", ErrConflict, err)
			return true
		}
		ran++
		j.res.Stepped++
	}

	done := s.inst.Done()
	if !done && !j.res.DeadlineExceeded && j.res.Stepped < j.want {
		if time.Now().After(j.limit) {
			j.res.DeadlineExceeded = true
		} else {
			return false // back to the run queue for another quantum
		}
	}

	state := StatePaused
	if done {
		state = StateDone
		r, err := s.inst.Finalize()
		if err != nil {
			s.poison(err)
			j.res.Cycle = s.inst.Cycle()
			j.res.State = StateBroken
			j.err = fmt.Errorf("%w: %v", ErrConflict, err)
			return true
		}
		j.res.Result = &r
		s.meta.Lock()
		s.meta.result = &r
		s.meta.Unlock()
	}
	s.syncMeta(state)
	j.res.Cycle = s.inst.Cycle()
	j.res.Done = done
	j.res.State = state
	return true
}
