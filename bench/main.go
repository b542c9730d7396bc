// Command bench is the repository's benchmark: four workloads over the
// train-to-serve stack, eleven end-to-end metrics each, and a traced run per
// workload that attributes the time to layers. See README.md.
//
//	bench                                  every workload, untraced then traced
//	bench -workload W -seed N -trace 0|1   one run in this process
//	bench -selftest [-workload W]          two sets of runs, compared
//
// A run prints every metric by name with its unit and sample count, the
// result of every correctness check, and as its last line one JSON object
// {correct, attempted, failed, metrics}. The exit code is non-zero when a
// check failed.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all, each run in a fresh process)")
	seed := flag.Int64("seed", 1, "workload seed; with no -workload, the first of -runs consecutive seeds")
	seconds := flag.Float64("seconds", nominalSeconds, "sizes the fixed work: about this long on the seed commit")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "out", "directory for run records and traces; owned by the runner")
	runs := flag.Int("runs", 0, "with no -workload, untraced runs per workload on seeds seed..seed+runs-1 (default 1; 10 per set under -selftest)")
	selftest := flag.Bool("selftest", false, "run two sets of -runs runs per workload (or of -workload alone) and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *runs < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	which := workloads
	if *workload != "" {
		def, found := workloadByName(*workload)
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		which = []workloadDef{def}
	}

	var ok bool
	var err error
	switch {
	case *selftest:
		n := *runs
		if n == 0 {
			n = defaultSetSize
		}
		ok, err = selfTest(which, *out, *seed, n, *seconds)
	case *workload != "":
		var rf *runFile
		if rf, err = execute(os.Stdout, which[0], *seed, *seconds, *trace == 1, *out); err == nil {
			ok = rf.Correct
		}
	default:
		ok, err = runAll(*out, *seed, max(*runs, 1), *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
