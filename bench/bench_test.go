package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerDef is the part of BENCHMARK.json the program must honour.
type ledgerDef struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readLedger(t *testing.T) ledgerDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d ledgerDef
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLedgerMatchesProgram keeps BENCHMARK.json and the program's own
// metric declarations identical, so no metric can be dropped from
// one without the other.
func TestLedgerMatchesProgram(t *testing.T) {
	d := readLedger(t)
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer())
	var got, want []string
	for _, w := range d.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		if w.ledger {
			want = append(want, w.name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
}

// TestSmoke runs every workload briefly at a tiny scale, and one
// traced run (which runs every other workload as a traced companion),
// and checks that every declared metric is emitted with its unit — or,
// only because the run is this short, listed as unsupported — and
// that every output check passed.
func TestSmoke(t *testing.T) {
	for i, w := range workloads {
		traces := []bool{false}
		if i == 0 {
			traces = append(traces, true)
		}
		for _, trace := range traces {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: 7, seconds: 0.6, scale: 0.05, trace: trace,
					spans: filepath.Join(t.TempDir(), "spans.json")}
				var out bytes.Buffer
				r, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("%d of %d checks failed: %v", r.failed, r.attempted, r.problems)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var info struct {
					Info struct{ Unsupported []string } `json:"info"`
				}
				var res struct {
					Correct bool
					Metrics map[string]metric
				}
				if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &info) != nil ||
					json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
					t.Fatalf("output does not end with the info and result lines:\n%s", out.String())
				}
				if !res.Correct {
					t.Fatal("result not correct")
				}
				want := endToEnd
				if trace {
					want = perLayer()
				}
				unsupported := make(map[string]bool)
				for _, n := range info.Info.Unsupported {
					unsupported[n] = true
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok && !unsupported[m.name]:
						t.Errorf("metric %s neither emitted nor listed unsupported", m.name)
					case ok && got.Unit != m.unit:
						t.Errorf("metric %s in %s, declared %s", m.name, got.Unit, m.unit)
					}
				}
				if len(res.Metrics)+len(unsupported) != len(want) {
					t.Errorf("%d metrics emitted and %d unsupported, %d declared", len(res.Metrics), len(unsupported), len(want))
				}
				if trace {
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}
