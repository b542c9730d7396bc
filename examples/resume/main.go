// Resume: demonstrate the versioned training-state snapshot API end to end —
// train with periodic snapshots, "crash" mid-epoch, resume from disk in a
// fresh session, and verify the resumed trajectory is bit-for-bit identical
// to an uninterrupted run.
//
// Snapshots capture everything a faithful resume needs: model weights, BN
// running statistics (per replica — BN groups diverge), optimizer slots, the
// EMA shadow, the schedule position, and each replica's RNG and
// data-pipeline cursors. A model-only checkpoint (train.Session.
// SaveCheckpoint) cannot do this: it would restart the optimizer, EMA,
// schedule and input order from scratch.
package main

import (
	"fmt"
	"log"
	"os"

	"effnetscale/internal/data"
	"effnetscale/internal/train"
)

func opts(extra ...train.Option) []train.Option {
	base := []train.Option{
		train.WithModel("pico"),
		train.WithWorld(2),
		train.WithPerReplicaBatch(4),
		train.WithData(data.MiniConfig(4, 64, 16)),
		train.WithOptimizer("lars", 1e-5),
		train.WithLinearScaling(20, 1, train.PolynomialDecay),
		train.WithEMA(0.9),
		train.WithSeed(11),
		train.WithEpochs(3),
		train.WithEvalSamples(8),
	}
	return append(base, extra...)
}

func run(label string, o ...train.Option) *train.Result {
	sess, err := train.New(o...)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	if path, step, ok := sess.ResumedFrom(); ok {
		fmt.Printf("%s: resumed from %s at step %d\n", label, path, step)
	}
	res, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d steps, peak top-1 %.4f\n", label, res.StepsRun, res.PeakAccuracy)
	return res
}

func main() {
	dir, err := os.MkdirTemp("", "effnet-snapshots-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The reference: one uninterrupted run.
	ref := run("uninterrupted", opts()...)

	// The same run, snapshotting every 2 steps and "preempted" mid-epoch at
	// step 7 (StopAfterStep stands in for a kill; effnettrain's
	// -kill-at-step flag does it with a real os.Exit).
	run("interrupted",
		opts(
			train.WithSnapshotDir(dir),
			train.WithSnapshotEvery(2),
			train.WithKeepLast(3),
			train.WithCallbacks(train.StopAfterStep(7)),
		)...)

	// A fresh session resumes from the newest snapshot on disk and finishes
	// the job.
	res := run("resumed", opts(train.WithResume(dir))...)
	if !res.Resumed {
		log.Fatal("resumed run did not report Result.Resumed")
	}

	if res.PeakAccuracy != ref.PeakAccuracy {
		log.Fatalf("trajectories diverged: resumed peak %v, uninterrupted %v", res.PeakAccuracy, ref.PeakAccuracy)
	}
	fmt.Println("resumed trajectory matches the uninterrupted run bit-for-bit ✓")
}
