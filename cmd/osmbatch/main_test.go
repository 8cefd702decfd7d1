package main

import (
	"strings"
	"testing"

	"repro/internal/batch"
)

// fileJobs is a jobs file that names its own engines.
func fileJobs() []batch.Job {
	return []batch.Job{
		{Arch: "arm", Workload: "spec/crc", N: 1, Engine: "scan"},
		{Arch: "ppc", Workload: "spec/crc", N: 1},
	}
}

func TestApplyFlagsEngine(t *testing.T) {
	jobs := fileJobs()
	if err := applyFlags(jobs, "", false, 0, 0); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Engine != "scan" || jobs[1].Engine != "" {
		t.Fatalf("without -scheduler the file's engines became %q, %q", jobs[0].Engine, jobs[1].Engine)
	}

	jobs = fileJobs()
	if err := applyFlags(jobs, "generated", true, 5000, 7); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.Engine != "generated" || !j.Check || j.MaxCycles != 5000 {
			t.Fatalf("job %d after overrides: %+v", i, j)
		}
	}
	if jobs[0].PanicAt != 7 || jobs[1].PanicAt != 0 {
		t.Fatalf("fault injected at %d, %d; want the first job only", jobs[0].PanicAt, jobs[1].PanicAt)
	}

	if err := applyFlags(fileJobs(), "bogus", false, 0, 0); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown -scheduler: err = %v", err)
	}
}

// A job keeps the engine its file names, the manifest reports it, and
// an unknown engine in the file fails that job alone with an explicit
// error.
func TestFileEngineRunsAndUnknownFails(t *testing.T) {
	jobs := []batch.Job{
		{Arch: "arm", Workload: "spec/crc", N: 1, Engine: "scan"},
		{Arch: "arm", Workload: "spec/crc", N: 2, Engine: "bogus"},
	}
	if err := applyFlags(jobs, "", false, 0, 0); err != nil {
		t.Fatal(err)
	}
	m := (&batch.Runner{Workers: 1}).Run(jobs)
	if r := m.Results[0]; r.Status != batch.StatusOK || r.Job.Engine != "scan" {
		t.Fatalf("scan job: status %q, engine %q (%s)", r.Status, r.Job.Engine, r.Error)
	}
	if r := m.Results[1]; r.Status != batch.StatusError || !strings.Contains(r.Error, `unknown engine "bogus"`) {
		t.Fatalf("bogus-engine job: status %q, error %q", r.Status, r.Error)
	}
}
