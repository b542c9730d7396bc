package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"effnetscale/internal/parallel"
)

// run is one run of one workload in this process: what it was asked to do,
// and everything it measured and checked.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	// tmp is this run's scratch directory for snapshots, under the output
	// directory; it is removed when the run ends.
	tmp string
	tr  *tracer

	metrics   map[string]float64
	samples   map[string]int
	notes     map[string]string
	checks    []check
	attempted int
	failed    int
	// lossSum fingerprints the loss trajectory: every run of one seed must
	// report the same value, traced or not.
	lossSum string
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// set records a metric; n is the number of samples behind it.
func (r *run) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// note attaches a remark printed beside a metric (the quantile a tail used).
func (r *run) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// scaled sizes fixed work: perSecond operations for every second of seconds,
// at least floor.
func scaled(perSecond, seconds float64, floor int) int {
	return max(int(math.Round(perSecond*seconds)), floor)
}

// fullSize reports that the run has the work BENCHMARK.json asks for; the
// smoke test's shortened runs cannot reach training targets and skip them.
func (r *run) fullSize() bool { return r.seconds >= nominalSeconds }

// setProcs fixes the processor count a stretch is defined at, for the Go
// scheduler and for the program's own worker pool (which reads GOMAXPROCS
// once, at start-up), and returns a function that puts both back:
//
//	defer setProcs(1, 1)()
func setProcs(procs, workers int) (restore func()) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevWorkers := parallel.SetMaxWorkers(workers)
	return func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetMaxWorkers(prevWorkers)
	}
}

// expected returns the metrics a run of this kind must print.
func (r *run) expected() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// runFile is the record of one run kept under out/.
type runFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	LossSum   string                 `json:"loss_sum,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Checks    []check                `json:"checks"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runFileName names the record of a run; traced and untraced runs of one
// seed sit side by side.
func runFileName(workload string, seed int64, trace bool) string {
	if trace {
		return fmt.Sprintf("run-%s-%d-trace.json", workload, seed)
	}
	return fmt.Sprintf("run-%s-%d.json", workload, seed)
}

// execute runs the workload in this process and reports it: metrics by name
// with unit and sample count, every check, then the result line. The error
// is a failure to run at all; a run that ran but failed a check returns its
// record with Correct false.
func execute(w io.Writer, def workloadDef, seed int64, seconds float64, trace bool, outDir string) (*runFile, error) {
	r := &run{
		seed: seed, seconds: seconds, trace: trace,
		metrics: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+def.Name+"-")
	if err != nil {
		return nil, err
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)
	if trace {
		r.tr = newTracer()
	}
	mem := startRSSSampler()
	err = def.run(r)
	resident := mem.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	// The process is fresh, so both figures are this run's own.
	hwm, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", quantile(resident, rssQuantile), len(resident))
	r.note("peak_rss_mb", "p%.0f of VmRSS sampled every %v; VmHWM %.1f MB", 100*rssQuantile, rssEvery, hwm)
	if trace {
		r.tr.finish()
		if err := r.tr.write(filepath.Join(outDir, "trace-"+def.Name+".jsonl")); err != nil {
			return nil, err
		}
	}

	rf := &runFile{
		Workload: def.Name, Seed: seed, Seconds: seconds, Trace: trace,
		Attempted: r.attempted, Failed: r.failed, LossSum: r.lossSum,
		Metrics: map[string]metricValue{}, Samples: r.samples,
	}
	mode := "end-to-end"
	if trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed %d, %s, %.3g s of work, GOMAXPROCS %d\n", def.Name, seed, mode, seconds, runtime.GOMAXPROCS(0))
	for _, m := range r.expected() {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("metric:"+m.Name, false, "not measured (%v)", v)
			continue
		}
		rf.Metrics[m.Name] = metricValue{v, m.Unit}
		line := fmt.Sprintf("%-34s %14.6g %-8s n=%d", m.Name, v, m.Unit, r.samples[m.Name])
		if note := r.notes[m.Name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	rf.Checks = r.checks
	rf.Correct = true
	for _, c := range r.checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
			rf.Correct = false
		}
		fmt.Fprintf(w, "check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	if r.lossSum != "" {
		fmt.Fprintf(w, "loss checksum %s\n", r.lossSum)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", rf.Attempted, rf.Failed, rf.Correct)

	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, runFileName(def.Name, seed, trace)), b, 0o644); err != nil {
		return nil, err
	}
	line, err := json.Marshal(resultLine{rf.Correct, rf.Attempted, rf.Failed, rf.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rf, nil
}
