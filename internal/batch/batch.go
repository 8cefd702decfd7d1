// Package batch is the parallel batch-simulation driver: it runs a
// set of workload/model jobs across a worker pool with per-job
// deadlines, panic isolation, periodic checkpoints and resume from
// the last checkpoint, and produces a JSON results manifest. It is
// the library behind cmd/osmbatch.
package batch

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/workload"
)

// Job describes one simulation to run.
type Job struct {
	// Name identifies the job in results and the checkpoint store; it
	// must be unique within a batch. Empty means derived from the
	// other fields.
	Name string `json:"name"`
	// Arch selects the model: "arm" (StrongARM) or "ppc" (PPC750).
	Arch string `json:"arch"`
	// Workload is a workload name from internal/workload.
	Workload string `json:"workload"`
	// N is the iteration count (0 = the workload's default).
	N int `json:"n"`
	// Engine selects the execution engine: "generated" (what the
	// empty default runs), "event", "scan" or "compiled" (see
	// runner.Spec.Engine). Engines are trace-equivalent, so
	// checkpoints resume across engine changes (the field is not part
	// of the job identity).
	Engine string `json:"engine,omitempty"`
	// MaxCycles bounds the run (0 = 20M).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// PanicAt, when nonzero, makes the job panic at that cycle —
	// fault injection for exercising the driver's panic isolation.
	PanicAt uint64 `json:"panic_at,omitempty"`
	// Check verifies OSM invariants (token conservation, bindings,
	// scheduling, livelock) every control step; a violation fails the
	// job with a structured diagnostic.
	Check bool `json:"check,omitempty"`
}

func (j *Job) fill() {
	if j.N == 0 {
		if w := workload.ByName(j.Workload); w != nil {
			j.N = w.DefaultN
		}
	}
	if j.MaxCycles == 0 {
		j.MaxCycles = 20_000_000
	}
	if j.Name == "" {
		j.Name = fmt.Sprintf("%s-%s-n%d", j.Arch, strings.ReplaceAll(j.Workload, "/", "_"), j.N)
	}
}

// Job statuses.
const (
	StatusOK          = "ok"
	StatusError       = "error"
	StatusPanic       = "panic"
	StatusDeadline    = "deadline"
	StatusInterrupted = "interrupted"
)

// Result reports one finished (or failed) job.
type Result struct {
	Job         Job      `json:"job"`
	Status      string   `json:"status"`
	Cycles      uint64   `json:"cycles"`
	Instrs      uint64   `json:"instrs"`
	CPI         float64  `json:"cpi,omitempty"`
	Reported    []uint32 `json:"reported,omitempty"`
	RefOK       *bool    `json:"ref_ok,omitempty"`
	Error       string   `json:"error,omitempty"`
	Resumed     bool     `json:"resumed,omitempty"`
	Checkpoints int      `json:"checkpoints,omitempty"`
	WallMS      int64    `json:"wall_ms"`
}

// Manifest is the JSON results document for one batch run.
type Manifest struct {
	Workers int      `json:"workers"`
	Results []Result `json:"results"`
}

// Failed returns the number of jobs that did not finish with StatusOK.
func (m *Manifest) Failed() int {
	n := 0
	for _, r := range m.Results {
		if r.Status != StatusOK {
			n++
		}
	}
	return n
}

// Runner executes jobs across a worker pool.
type Runner struct {
	// Workers is the pool size (0 = 1).
	Workers int
	// CheckpointEvery is the cycle interval between checkpoints
	// (0 = no periodic checkpoints).
	CheckpointEvery uint64
	// CheckpointDir is the chunk-store root checkpoints go to, one run
	// per job name; required when CheckpointEvery is set. A job whose
	// latest stored checkpoint matches its identity resumes from it
	// instead of starting over.
	CheckpointDir string
	// Deadline bounds each job's wall-clock time (0 = none).
	Deadline time.Duration
	// Interrupt, if non-nil, aborts the batch when closed: queued
	// jobs are not started, and each in-progress job flushes a final
	// checkpoint (when CheckpointDir is set) and is recorded with
	// StatusInterrupted, so a rerun with the same CheckpointDir
	// resumes instead of losing the partial run.
	Interrupt <-chan struct{}
	// Log, if non-nil, receives per-job progress lines.
	Log io.Writer

	// store caches the CheckpointDir chunk store across jobs.
	storeOnce sync.Once
	store     *store.Store
	storeErr  error
}

// interrupted reports whether the interrupt channel has been closed.
func (r *Runner) interrupted() bool {
	if r.Interrupt == nil {
		return false
	}
	select {
	case <-r.Interrupt:
		return true
	default:
		return false
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Spec returns the runner spec of the job's model: arch arm runs on
// the StrongARM, ppc on the PPC-750.
func (j Job) Spec() (runner.Spec, error) {
	spec := runner.Spec{Workload: j.Workload, N: j.N, MaxCycles: j.MaxCycles, Engine: j.Engine, Check: j.Check}
	switch j.Arch {
	case "arm":
		spec.Target = "strongarm"
	case "ppc":
		spec.Target = "ppc750"
	default:
		return runner.Spec{}, fmt.Errorf("batch: unknown arch %q (want arm or ppc)", j.Arch)
	}
	return spec, nil
}

// newInstance builds the job's model through runner.New, the
// construction every entry point shares.
func newInstance(j Job) (*runner.Instance, error) {
	spec, err := j.Spec()
	if err != nil {
		return nil, err
	}
	return runner.New(spec)
}

// Run executes the batch and returns the manifest. Results are in job
// order regardless of completion order. A panicking job is recorded
// with StatusPanic; the worker survives and continues with the next
// job.
func (r *Runner) Run(jobs []Job) Manifest {
	workers := r.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = r.runJob(jobs[i])
			}
		}()
	}
dispatch:
	for i := range jobs {
		if r.Interrupt == nil {
			idxCh <- i
			continue
		}
		select {
		case <-r.Interrupt:
			// Queued jobs are not started; record them so the
			// manifest accounts for every job in the batch.
			for k := i; k < len(jobs); k++ {
				j := jobs[k]
				j.fill()
				results[k] = Result{
					Job:    j,
					Status: StatusInterrupted,
					Error:  "interrupted before start",
				}
			}
			break dispatch
		case idxCh <- i:
		}
	}
	close(idxCh)
	wg.Wait()
	r.gcCheckpoints()
	return Manifest{Workers: workers, Results: results}
}

// runJob executes one job, converting panics into a StatusPanic
// result.
func (r *Runner) runJob(j Job) (res Result) {
	j.fill()
	res.Job = j
	start := time.Now()
	defer func() {
		res.WallMS = time.Since(start).Milliseconds()
		if p := recover(); p != nil {
			res.Status = StatusPanic
			res.Error = fmt.Sprintf("panic: %v", p)
			r.logf("job %s: %s", j.Name, res.Error)
		}
	}()

	s, err := newInstance(j)
	if err != nil {
		res.Status = StatusError
		res.Error = err.Error()
		return res
	}

	if blob, cycle, ok := r.loadCheckpoint(j); ok {
		if err := s.Restore(blob); err != nil {
			// A stale or corrupt checkpoint must not kill the job:
			// rebuild and start over.
			r.logf("job %s: checkpoint unusable (%v), restarting", j.Name, err)
			s, err = newInstance(j)
			if err != nil {
				res.Status = StatusError
				res.Error = err.Error()
				return res
			}
		} else {
			res.Resumed = true
			r.logf("job %s: resumed at cycle %d", j.Name, cycle)
		}
	}

	nextCkpt := uint64(0)
	if r.CheckpointEvery > 0 {
		nextCkpt = s.Cycle() + r.CheckpointEvery
	}
	const deadlineCheck = 1024
	for !s.Done() {
		if s.Cycle() >= j.MaxCycles {
			res.Status = StatusError
			res.Error = fmt.Sprintf("did not finish within %d cycles", j.MaxCycles)
			return res
		}
		if j.PanicAt > 0 && s.Cycle() == j.PanicAt {
			panic(fmt.Sprintf("injected fault at cycle %d", j.PanicAt))
		}
		if r.Deadline > 0 && s.Cycle()%deadlineCheck == 0 && time.Since(start) > r.Deadline {
			res.Status = StatusDeadline
			res.Error = fmt.Sprintf("exceeded deadline %v at cycle %d", r.Deadline, s.Cycle())
			return res
		}
		if s.Cycle()%deadlineCheck == 0 && r.interrupted() {
			// Flush the partial run so a rerun resumes here instead
			// of starting over.
			if r.CheckpointDir != "" {
				if err := r.writeCheckpoint(j, s); err != nil {
					r.logf("job %s: interrupt checkpoint failed: %v", j.Name, err)
				} else {
					res.Checkpoints++
				}
			}
			res.Status = StatusInterrupted
			res.Error = fmt.Sprintf("interrupted at cycle %d", s.Cycle())
			r.logf("job %s: %s", j.Name, res.Error)
			return res
		}
		if err := s.StepCycle(); err != nil {
			res.Status = StatusError
			res.Error = err.Error()
			return res
		}
		if nextCkpt > 0 && s.Cycle() >= nextCkpt {
			if err := r.writeCheckpoint(j, s); err != nil {
				r.logf("job %s: checkpoint failed: %v", j.Name, err)
			} else {
				res.Checkpoints++
			}
			nextCkpt = s.Cycle() + r.CheckpointEvery
		}
	}

	fin, err := s.Finalize()
	res.Cycles, res.Instrs, res.Reported = fin.Cycles, fin.Instrs, fin.Reported
	if fin.Instrs > 0 {
		res.CPI = float64(fin.Cycles) / float64(fin.Instrs)
	}
	if err != nil {
		res.Status = StatusError
		res.Error = err.Error()
		return res
	}
	if w := workload.ByName(j.Workload); w != nil && w.Ref != nil {
		ok := len(fin.Reported) == 1 && fin.Reported[0] == w.Ref(j.N)
		res.RefOK = &ok
		if !ok {
			res.Status = StatusError
			res.Error = "reported checksum does not match the workload reference"
			return res
		}
	}
	res.Status = StatusOK
	r.removeCheckpoint(j)
	r.logf("job %s: ok (%d cycles, %d instrs)", j.Name, fin.Cycles, fin.Instrs)
	return res
}

// ---- checkpoint records ----

// Bump ckptVersion whenever the job-identity encoding changes: an
// older record then fails to decode and its job restarts instead of
// being misparsed.
const (
	ckptHeader  = "ckpt"
	ckptVersion = 2
)

// checkpointGCGrace spares store files younger than this from the
// end-of-batch sweep, so two osmbatch processes sharing a checkpoint
// directory cannot reclaim each other's half-written checkpoints.
const checkpointGCGrace = time.Minute

// Checkpoint is a decoded checkpoint record: the identity of the job
// it was written for, the cycle it captures, and the simulator
// snapshot blob.
type Checkpoint struct {
	Job   Job
	Cycle uint64
	Blob  []byte
}

// IsCheckpoint reports whether data starts like an encoded batch
// checkpoint record.
func IsCheckpoint(data []byte) bool {
	rd := snap.NewReader(data)
	return rd.U32() == snap.Magic && rd.String() == ckptHeader && rd.Err() == nil
}

// EncodeCheckpoint wraps a simulator snapshot with the job identity so
// a renamed or edited job set cannot resume from a mismatched record.
func EncodeCheckpoint(j Job, cycle uint64, blob []byte) ([]byte, error) {
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(ckptHeader)
	w.Version(ckptVersion)
	writeJobIdentity(w, j)
	w.U64(cycle)
	w.Bytes32(blob)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("batch: encode checkpoint: %w", err)
	}
	return w.Bytes(), nil
}

// DecodeCheckpoint parses an encoded checkpoint record, refusing
// bytes after it. The returned Job carries identity fields only (see
// jobIdentity).
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	rd := snap.NewReader(data)
	if rd.U32() != snap.Magic || rd.String() != ckptHeader {
		return Checkpoint{}, fmt.Errorf("batch: not a checkpoint record")
	}
	rd.Version(ckptHeader, ckptVersion)
	var c Checkpoint
	readJobIdentity(rd, &c.Job)
	c.Cycle = rd.U64()
	c.Blob = rd.Bytes32()
	if err := rd.Close("checkpoint record"); err != nil {
		return Checkpoint{}, fmt.Errorf("batch: %w", err)
	}
	return c, nil
}

// checkpointStore lazily opens the chunk store rooted at
// CheckpointDir. Checkpoints live in the store under the job name
// (run = job name, cycle = checkpoint cycle), chunked and
// deduplicated against earlier checkpoints of the same job.
func (r *Runner) checkpointStore() (*store.Store, error) {
	r.storeOnce.Do(func() {
		r.store, r.storeErr = store.Open(r.CheckpointDir, store.Options{})
	})
	return r.store, r.storeErr
}

// writeCheckpoint persists the job's state into the checkpoint store.
func (r *Runner) writeCheckpoint(j Job, s *runner.Instance) error {
	if r.CheckpointDir == "" {
		return fmt.Errorf("batch: CheckpointEvery set without CheckpointDir")
	}
	blob, err := s.Snapshot()
	if err != nil {
		return err
	}
	rec, err := EncodeCheckpoint(j, s.Cycle(), blob)
	if err != nil {
		return err
	}
	st, err := r.checkpointStore()
	if err != nil {
		return err
	}
	_, err = st.Put(j.Name, s.Cycle(), rec)
	return err
}

// loadCheckpoint returns the simulator snapshot from the job's latest
// stored checkpoint when one exists and its identity matches. A
// damaged checkpoint never kills the job — it restarts from scratch.
func (r *Runner) loadCheckpoint(j Job) (blob []byte, cycle uint64, ok bool) {
	if r.CheckpointDir == "" {
		return nil, 0, false
	}
	st, err := r.checkpointStore()
	if err != nil {
		r.logf("job %s: checkpoint store unusable (%v)", j.Name, err)
		return nil, 0, false
	}
	_, data, err := st.Latest(j.Name)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			r.logf("job %s: stored checkpoint unusable (%v)", j.Name, err)
		}
		return nil, 0, false
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		r.logf("job %s: ignoring unreadable checkpoint (%v)", j.Name, err)
		return nil, 0, false
	}
	if c.Job != jobIdentity(j) {
		r.logf("job %s: ignoring checkpoint with mismatched identity", j.Name)
		return nil, 0, false
	}
	return c.Blob, c.Cycle, true
}

// removeCheckpoint drops the job's store run after success. Chunks
// the run referenced are reclaimed by the end-of-batch GC sweep.
func (r *Runner) removeCheckpoint(j Job) {
	if r.CheckpointDir == "" {
		return
	}
	if st, err := r.checkpointStore(); err == nil {
		if err := st.DeleteRun(j.Name); err != nil {
			r.logf("job %s: dropping checkpoints: %v", j.Name, err)
		}
	}
}

// gcCheckpoints sweeps the checkpoint store after a batch: chunks
// that only completed jobs referenced are reclaimed (the counterpart
// of the park-directory leak fix). Recent files are spared so
// concurrent batches sharing the directory are safe.
func (r *Runner) gcCheckpoints() {
	if r.CheckpointDir == "" {
		return
	}
	st, err := r.checkpointStore()
	if err != nil {
		return
	}
	stats, err := st.GC(store.GCOptions{Grace: checkpointGCGrace})
	if err != nil {
		r.logf("checkpoint gc: %v", err)
		return
	}
	if stats.SweptChunks > 0 {
		r.logf("checkpoint gc: swept %d chunks (%d bytes)", stats.SweptChunks, stats.SweptBytes)
	}
}

// jobIdentity strips the fields that do not affect simulation state
// (fault injection is driver-side, the invariant checker is a pure
// observer, and execution engines are trace-equivalent), so
// checkpoints resume across differing settings.
func jobIdentity(j Job) Job {
	j.PanicAt = 0
	j.Check = false
	j.Engine = ""
	return j
}

func writeJobIdentity(w *snap.Writer, j Job) {
	id := jobIdentity(j)
	w.String(id.Name)
	w.String(id.Arch)
	w.String(id.Workload)
	w.Int(id.N)
	w.U64(id.MaxCycles)
}

func readJobIdentity(r *snap.Reader, j *Job) {
	j.Name = r.String()
	j.Arch = r.String()
	j.Workload = r.String()
	j.N = r.Int()
	j.MaxCycles = r.U64()
}

// MixJobs returns the standard mixed ARM+PPC job set over every
// workload, n iterations each (0 = per-workload default).
func MixJobs(n int) []Job {
	var jobs []Job
	for _, w := range workload.Mix() {
		for _, arch := range []string{"arm", "ppc"} {
			jobs = append(jobs, Job{Arch: arch, Workload: w.Name, N: n})
		}
	}
	return jobs
}
