package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSeconds runs each workload at a fiftieth of its work.
const smokeSeconds = nominalSeconds / 50.0

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json to what the harness
// prints: the same workloads and metrics, in the same order, with the same
// units, directions and bounds, and nothing the harness does not print.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the work is sized for %d", b.RunSeconds, nominalSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the harness has %d", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	compare := func(kind string, listed []benchMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, the harness prints %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d is %+v, the harness prints %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name, or bad unit %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != higher && m.Better != lower {
				t.Errorf("%s metric %q: direction %q", kind, m.Name, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s metric %q carries a bound", kind, m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s metric %q: bound %v, the harness has %v (must be in (0, 0.25])", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

// checkRun fails the test unless the run passed its checks and printed every
// metric of its kind.
func checkRun(t *testing.T, rf *runFile, defs []metricDef) {
	t.Helper()
	for _, c := range rf.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", rf.Workload, c.Name, c.Detail)
		}
	}
	if !rf.Correct || rf.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", rf.Workload, rf.Correct, rf.Attempted, rf.Failed)
	}
	if len(rf.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rf.Workload, len(rf.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rf.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in unit %q", rf.Workload, d.Name, m.Unit)
		}
	}
}

// TestSmokeEndToEnd runs every workload at a fiftieth of its work with the
// checks on.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		rf, err := execute(io.Discard, w, 1, smokeSeconds, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, rf, endToEnd)
		for name, m := range rf.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, m.Value)
			}
		}
	}
}

// TestSmokeTrace runs one traced workload and holds its trace to the rules:
// it parses, every span's parent exists, no self time is negative, and on the
// plain training step the phase children cover at least 90% of the step.
func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run's companion stretches and probes take ~20 s")
	}
	out := t.TempDir()
	def, _ := workloadByName("train_compute")
	rf, err := execute(io.Discard, def, 1, smokeSeconds, true, out)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, rf, perLayer)

	f, err := os.Open(filepath.Join(out, "trace-train_compute.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ids := map[int]spanJSON{}
	for _, s := range spans {
		ids[s.ID] = s
	}
	var stepUS, selfUS int64
	for _, s := range spans {
		if _, ok := ids[s.Parent]; s.Parent != 0 && !ok {
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.SelfUS < 0 || s.EndUS < s.StartUS {
			t.Errorf("span %d (%s): self %d us, interval [%d, %d]", s.ID, s.Name, s.SelfUS, s.StartUS, s.EndUS)
		}
		if s.Name == "replica.step" {
			stepUS += s.EndUS - s.StartUS
			selfUS += s.SelfUS
		}
	}
	if stepUS == 0 || float64(selfUS) > 0.1*float64(stepUS) {
		t.Errorf("phase children cover %d of %d us of replica.step, want at least 90%%", stepUS-selfUS, stepUS)
	}
}
