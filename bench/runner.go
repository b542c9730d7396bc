package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSetSize is the number of runs per workload in one set of a
// self-test: ten seeds, as many as the driver's own acceptance check takes.
const defaultSetSize = 10

// claimOut makes the output directory this invocation's own: whatever an
// earlier invocation (or an older harness) left there is removed, so that
// only runs made now are ever summarized together.
func claimOut(out string) error {
	if err := os.RemoveAll(out); err != nil {
		return err
	}
	return os.MkdirAll(out, 0o755)
}

// spawn runs one workload run in a fresh process, so that its peak memory is
// its own, passes its report through, and returns the record it wrote.
func spawn(w io.Writer, out, workload string, seed int64, seconds float64, trace bool) (*runFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	// The last line is the driver's result object; the record on disk holds
	// the same numbers and more.
	lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
	for _, l := range lines[:max(len(lines)-1, 0)] {
		fmt.Fprintf(w, "%s\n", l)
	}
	b, err := os.ReadFile(filepath.Join(out, runFileName(workload, seed, trace)))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, err
	}
	return &rf, nil
}

// runAll is the one command: every workload, runs untraced runs each and one
// traced run, each in a fresh process. It reports false when any check of
// any run failed.
func runAll(out string, seed int64, runs int, seconds float64) (bool, error) {
	if err := claimOut(out); err != nil {
		return false, err
	}
	ok := true
	for _, w := range workloads {
		var first *runFile // the untraced run of seed
		for i := 0; i < runs; i++ {
			rf, err := spawn(os.Stdout, out, w.Name, seed+int64(i), seconds, false)
			if err != nil {
				return false, err
			}
			if i == 0 {
				first = rf
			}
			ok = ok && rf.Correct
		}
		traced, err := spawn(os.Stdout, out, w.Name, seed, seconds, true)
		if err != nil {
			return false, err
		}
		ok = ok && traced.Correct
		// Telemetry must not change the arithmetic: the traced run of a seed
		// walks the same loss trajectory as the untraced one.
		if traced.LossSum != first.LossSum {
			ok = false
			fmt.Printf("check FAIL %s: loss checksum differs between the untraced (%s) and traced (%s) run of seed %d\n", w.Name, first.LossSum, traced.LossSum, seed)
		} else if traced.LossSum != "" {
			fmt.Printf("check ok   %s: loss checksum %s identical untraced and traced\n", w.Name, traced.LossSum)
		}
	}
	fmt.Printf("all checks passed: %v; records and traces in %s\n", ok, out)
	return ok, nil
}

// set is one metric's values over the runs of a set.
type set []float64

func (s set) spread() float64 {
	m := median(s)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(m)
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule the
// driver applies: the exclusive method, positions (n+1)/4 and 3(n+1)/4.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// selfTest runs two sets of n runs per workload on the working tree, on the
// same seeds, and compares them the way a change is judged: for every
// end-to-end metric and workload, the second median may not be worse than the
// first by more than the metric's bound, each set's spread (interquartile
// range over median) must stay within the bound, and one seed must produce
// one loss trajectory. It is the calibration tool for the bounds.
func selfTest(which []workloadDef, out string, seed int64, n int, seconds float64) (bool, error) {
	if err := claimOut(out); err != nil {
		return false, err
	}
	ok := true
	for _, w := range which {
		var sets [2]map[string]set
		sums := map[int64]string{}
		for k := range sets {
			sets[k] = map[string]set{}
			for i := 0; i < n; i++ {
				s := seed + int64(i)
				rf, err := spawn(io.Discard, out, w.Name, s, seconds, false)
				if err != nil {
					return false, err
				}
				if !rf.Correct {
					ok = false
					fmt.Printf("FAIL %s seed %d set %d: a check failed (see %s)\n", w.Name, s, k+1, runFileName(w.Name, s, false))
				}
				if prev, seen := sums[s]; seen && prev != rf.LossSum {
					ok = false
					fmt.Printf("FAIL %s seed %d: loss checksum %s in set 1, %s in set 2\n", w.Name, s, prev, rf.LossSum)
				}
				sums[s] = rf.LossSum
				for name, v := range rf.Metrics {
					sets[k][name] = append(sets[k][name], v.Value)
				}
			}
		}
		fmt.Printf("== %s: two sets of %d runs, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
		fmt.Printf("%-18s %-6s %12s %12s %8s %8s %8s %6s  %s\n", "metric", "unit", "median A", "median B", "B vs A", "spreadA", "spreadB", "bound", "verdict")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			wide := max(a.spread(), b.spread())
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "FAIL: sets disagree"
			case m.Name != "setup_s" && wide > m.Bound:
				verdict = "FAIL: spread above bound"
			case m.Name != "setup_s" && wide > m.Bound/3:
				verdict = "ok (spread above bound/3)"
			}
			if verdict[:2] != "ok" {
				ok = false
			}
			fmt.Printf("%-18s %-6s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*a.spread(), 100*b.spread(), 100*m.Bound, verdict)
		}
	}
	fmt.Printf("self-test passed: %v\n", ok)
	return ok, nil
}
