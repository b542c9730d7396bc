// Command benchdiff compares `go test -bench` output against a committed
// baseline and fails on performance regressions. It is the CI gate that keeps
// the tensor kernels on the measured critical path from silently slowing
// down or re-growing allocations.
//
// Usage:
//
//	go test -run xxx -bench 'Step|MatMul|Conv' ./... | benchdiff -baseline BENCH_BASELINE.json
//	go test -run xxx -bench 'Step|MatMul|Conv' ./... | benchdiff -baseline BENCH_BASELINE.json -update
//
// Comparison model: CI machines differ in absolute speed from the machine
// that recorded the baseline, so raw ns/op is not comparable. benchdiff
// instead computes each benchmark's ratio current/baseline and normalizes
// by the geometric mean of all ratios — a uniform machine-speed factor
// cancels out, while any benchmark that regressed *relative to the others*
// sticks out. A normalized ratio above the tolerance (default 15%) fails.
// allocs/op needs no normalization and is compared strictly: any increase
// over a zero baseline fails (the kernels' 0 allocs/op contract). A whole
// training step allocates thousands of objects and that count wobbles by one
// or two from run to run (sync.Pool refills, goroutine start-up), so a
// non-zero baseline may be exceeded by 0.5% — far below what re-introducing
// one allocation per layer costs.
//
// The tradeoff is deliberate: a change that slows every benchmark by the
// same factor is invisible to the normalized check (indistinguishable from
// a slower machine). The absolute throughput trend is tracked by the
// img/s numbers in the README table instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark's recorded performance.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type baseline struct {
	// Note is documentation inside the JSON file, not used by the tool.
	Note       string           `json:"note,omitempty"`
	Tolerance  float64          `json:"tolerance,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	basePath := flag.String("baseline", "BENCH_BASELINE.json", "path to the baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	tol := flag.Float64("tolerance", 0, "normalized ns/op regression tolerance (0 = use baseline's, default 0.15)")
	flag.Parse()

	got, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(got) == 0 {
		fatalf("no benchmark lines found on stdin (did the bench run fail?)")
	}

	if *update {
		writeBaseline(*basePath, got, *tol)
		return
	}

	base, err := readBaseline(*basePath)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}
	tolerance := 0.15
	if base.Tolerance > 0 {
		tolerance = base.Tolerance
	}
	if *tol > 0 {
		tolerance = *tol
	}
	if compare(base.Benchmarks, got, tolerance) {
		os.Exit(1)
	}
}

// parseBench extracts benchmark results from `go test -bench` output.
// A line looks like:
//
//	BenchmarkConv/forward3x3  100  487882 ns/op  0 B/op  0 allocs/op
//
// Trailing -N GOMAXPROCS suffixes are stripped so baselines recorded at
// GOMAXPROCS=1 compare against runs from any machine pinned the same way.
func parseBench(r io.Reader) (map[string]entry, error) {
	out := make(map[string]entry)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var e entry
		seen := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				e.NsPerOp = v
				seen = true
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			}
		}
		if seen {
			out[name] = e
		}
	}
	return out, sc.Err()
}

// compare reports whether any regression was found, printing a row per
// benchmark.
func compare(base, got map[string]entry, tolerance float64) (failed bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	// Geometric mean of current/baseline ratios over benchmarks present in
	// both sets: the machine-speed factor.
	var logSum float64
	var nRatios int
	for _, name := range names {
		g, ok := got[name]
		if !ok || g.NsPerOp <= 0 || base[name].NsPerOp <= 0 {
			continue
		}
		logSum += math.Log(g.NsPerOp / base[name].NsPerOp)
		nRatios++
	}
	if nRatios == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no baseline benchmarks present in input")
		return true
	}
	speed := math.Exp(logSum / float64(nRatios))
	fmt.Printf("machine speed vs baseline: %.3fx (geomean of %d ratios)\n", speed, nRatios)
	fmt.Printf("%-40s %12s %12s %10s %s\n", "benchmark", "base ns/op", "ns/op", "norm", "allocs")

	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fmt.Printf("%-40s MISSING from input\n", name)
			failed = true
			continue
		}
		norm := g.NsPerOp / b.NsPerOp / speed
		status := ""
		if norm > 1+tolerance {
			status = "  REGRESSION"
			failed = true
		}
		allocs := fmt.Sprintf("%d", g.AllocsPerOp)
		if g.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/200 {
			allocs = fmt.Sprintf("%d (base %d)  ALLOC REGRESSION", g.AllocsPerOp, b.AllocsPerOp)
			failed = true
		}
		fmt.Printf("%-40s %12.0f %12.0f %9.3fx %s%s\n", name, b.NsPerOp, g.NsPerOp, norm, allocs, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL (tolerance %.0f%%)\n", tolerance*100)
	} else {
		fmt.Printf("benchdiff: ok (tolerance %.0f%%)\n", tolerance*100)
	}
	return failed
}

func readBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(data, &b)
	return b, err
}

func writeBaseline(path string, got map[string]entry, tol float64) {
	b := baseline{
		Note:       "Recorded with GOMAXPROCS=1; compared via geomean-normalized ratios (see cmd/benchdiff).",
		Benchmarks: got,
	}
	if tol > 0 {
		b.Tolerance = tol
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatalf("encoding baseline: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("writing baseline: %v", err)
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(got), path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
