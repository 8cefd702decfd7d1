// Osmstore inspects and maintains a chunked artifact store — a park
// directory written by osmserve workers or a checkpoint directory
// written by osmbatch. It lists the stored runs, reports dedup and
// compression totals, reclaims unreferenced chunks, and answers the
// time-travel query "what was cycle N of run J": the nearest indexed
// checkpoint at or before N is reassembled and deterministically
// replayed forward to N.
//
// Usage:
//
//	osmstore -dir park ls
//	osmstore -dir park stat
//	osmstore -dir park gc -grace 1m
//	osmstore -dir park at -run s-000001 -cycle 4000
//	osmstore -dir ckpt at -run arm-gsm_dec-n400 -cycle 12000 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/batch"
	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("osmstore", flag.ContinueOnError)
	dir := fs.String("dir", "", "store root directory (a park or checkpoint directory)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: osmstore -dir <root> <ls|stat|gc|at> [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" || fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var err error
	switch cmd {
	case "ls":
		err = cmdLs(*dir, stdout)
	case "stat":
		err = cmdStat(*dir, stdout)
	case "gc":
		err = cmdGC(*dir, rest, stdout)
	case "at":
		err = cmdAt(*dir, rest, stdout)
	default:
		err = fmt.Errorf("unknown command %q (want ls, stat, gc or at)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osmstore:", err)
		return 1
	}
	return 0
}

// cmdLs lists every stored run with its checkpoint count, cycle range
// and logical size.
func cmdLs(dir string, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	runs, err := st.Runs()
	if err != nil {
		return err
	}
	sort.Strings(runs)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "RUN\tENTRIES\tCYCLES\tBYTES")
	for _, name := range runs {
		entries, err := st.Entries(name)
		if err != nil {
			return fmt.Errorf("run %s: %w", name, err)
		}
		var logical uint64
		for _, e := range entries {
			logical += e.Len
		}
		span := "-"
		if len(entries) > 0 {
			span = fmt.Sprintf("%d..%d", entries[0].Cycle, entries[len(entries)-1].Cycle)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\n", name, len(entries), span, logical)
	}
	return tw.Flush()
}

// cmdStat prints store-wide totals: logical bytes across every run
// entry versus deduplicated, compressed bytes on disk.
func cmdStat(dir string, stdout io.Writer) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	s, err := st.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "runs:           %d\n", s.Runs)
	fmt.Fprintf(stdout, "entries:        %d\n", s.Entries)
	fmt.Fprintf(stdout, "logical bytes:  %d\n", s.LogicalBytes)
	fmt.Fprintf(stdout, "chunks:         %d\n", s.Chunks)
	fmt.Fprintf(stdout, "chunk bytes:    %d\n", s.ChunkBytes)
	if s.LogicalBytes > 0 {
		fmt.Fprintf(stdout, "stored/logical: %.1f%%\n", 100*float64(s.ChunkBytes)/float64(s.LogicalBytes))
	}
	return nil
}

// cmdGC sweeps chunks no run index references anymore, and stale
// temp files.
func cmdGC(dir string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("osmstore gc", flag.ContinueOnError)
	grace := fs.Duration("grace", time.Minute, "spare unreferenced files younger than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	stats, err := st.GC(store.GCOptions{Grace: *grace})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "swept %d chunks (%d bytes); %d chunks live, %d recent files spared\n",
		stats.SweptChunks, stats.SweptBytes, stats.LiveChunks, stats.KeptRecent)
	return nil
}

// atResult is the time-travel query answer.
type atResult struct {
	Run string `json:"run"`
	// Requested is the queried cycle; Checkpoint the indexed cycle the
	// replay started from; Cycle the cycle actually reached (short of
	// Requested only when the program finished first).
	Requested     uint64       `json:"requested"`
	Checkpoint    uint64       `json:"checkpoint"`
	Cycle         uint64       `json:"cycle"`
	Done          bool         `json:"done"`
	Kind          string       `json:"kind"`
	Target        string       `json:"target"`
	Registers     []runner.Reg `json:"registers"`
	TraceTotal    uint64       `json:"trace_total"`
	TraceChecksum string       `json:"trace_checksum"`
}

// cmdAt answers "cycle N of run J": reassemble the nearest stored
// checkpoint at or before N and replay deterministically to N.
func cmdAt(dir string, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("osmstore at", flag.ContinueOnError)
	runName := fs.String("run", "", "run to query: a parked session id or a batch job name")
	cycle := fs.Uint64("cycle", 0, "target cycle (0 = the latest stored checkpoint)")
	asJSON := fs.Bool("json", false, "emit the answer as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runName == "" {
		return fmt.Errorf("at: -run is required")
	}
	res, err := queryAt(dir, *runName, *cycle)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(stdout, "run:            %s (%s, %s)\n", res.Run, res.Kind, res.Target)
	fmt.Fprintf(stdout, "checkpoint:     cycle %d\n", res.Checkpoint)
	fmt.Fprintf(stdout, "cycle:          %d (requested %d, done=%v)\n", res.Cycle, res.Requested, res.Done)
	fmt.Fprintf(stdout, "trace:          %d transitions, checksum %s\n", res.TraceTotal, res.TraceChecksum)
	for _, r := range res.Registers {
		fmt.Fprintf(stdout, "  %-5s %#x\n", r.Name, r.Value)
	}
	return nil
}

// queryAt is the library form of `osmstore at`.
func queryAt(dir, runName string, cycle uint64) (atResult, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return atResult{}, err
	}
	want := cycle
	if want == 0 {
		want = ^uint64(0)
	}
	entry, data, err := st.At(runName, want)
	if err != nil {
		return atResult{}, fmt.Errorf("run %s at cycle %d: %w", runName, cycle, err)
	}

	// The stored record tells us how to rebuild its simulator: a
	// parked osmserve session snapshot names its spec and trace limit;
	// a batch checkpoint carries the job identity.
	var (
		kind  string
		spec  runner.Spec
		blob  []byte
		rec   = osm.NewRecorder()
		start uint64
	)
	switch {
	case server.IsSessionSnapshot(data):
		kind = "session"
		ss, err := server.DecodeSessionSnapshot(data)
		if err != nil {
			return atResult{}, err
		}
		spec = ss.Spec
		rec.Limit = ss.TraceLimit
		blob = ss.Blob
		start = ss.Cycle
		// Carry the parked trace forward so the replayed checksum
		// covers the whole run, exactly as a resurrection would.
		if err := rec.LoadState(ss.Tracer); err != nil {
			return atResult{}, fmt.Errorf("session %s: trace state: %w", runName, err)
		}
	case batch.IsCheckpoint(data):
		kind = "ckpt"
		c, err := batch.DecodeCheckpoint(data)
		if err != nil {
			return atResult{}, err
		}
		if spec, err = c.Job.Spec(); err != nil {
			return atResult{}, err
		}
		rec.Limit = 256
		blob = c.Blob
		start = c.Cycle
	default:
		return atResult{}, fmt.Errorf("run %s: stored record is neither a session snapshot nor a batch checkpoint", runName)
	}

	inst, err := runner.New(spec)
	if err != nil {
		return atResult{}, err
	}
	inst.Director().Tracer = rec
	if err := inst.Restore(blob); err != nil {
		return atResult{}, fmt.Errorf("run %s: restore checkpoint at cycle %d: %w", runName, entry.Cycle, err)
	}
	if got := inst.Cycle(); got != start {
		return atResult{}, fmt.Errorf("run %s: checkpoint restored at cycle %d, recorded %d", runName, got, start)
	}
	for inst.Cycle() < cycle && !inst.Done() {
		if err := inst.StepCycle(); err != nil {
			return atResult{}, fmt.Errorf("run %s: replay at cycle %d: %w", runName, inst.Cycle(), err)
		}
	}
	return atResult{
		Run:           runName,
		Requested:     cycle,
		Checkpoint:    entry.Cycle,
		Cycle:         inst.Cycle(),
		Done:          inst.Done(),
		Kind:          kind,
		Target:        spec.Target,
		Registers:     inst.Registers(),
		TraceTotal:    rec.Total(),
		TraceChecksum: fmt.Sprintf("%016x", rec.Checksum()),
	}, nil
}
