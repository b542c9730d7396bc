// Command effnettrain runs real distributed EfficientNet training on
// SynthImageNet with goroutine replicas — the mini-scale path that exercises
// every mechanism of the paper (data parallelism, pluggable collectives with
// bucketed overlapped gradient reduction, LARS or RMSProp, warmup + decay
// schedules, distributed batch norm, bf16 convs, distributed evaluation) —
// through the train.Session API.
//
// Example (the paper's recipe at laptop scale):
//
//	effnettrain -model pico -replicas 8 -per-replica-batch 16 \
//	    -optimizer lars -lr-per-256 40 -warmup-epochs 2 -epochs 8 \
//	    -bn-group 4 -classes 8
//
// Note LARS wants nominal LRs two orders of magnitude above SGD's (its
// layer-wise trust ratios shrink every update); -lr-per-256 40 at global
// batch 64 is a peak global LR of 10.
//
// The -telemetry-* flags attach the step-phase telemetry subsystem:
// -telemetry-console prints live per-epoch throughput/overlap/ETA lines,
// -telemetry-jsonl and -telemetry-csv stream per-step records to files, and
// any of them makes the run print its aggregate summary (phase shares,
// comm-overlap efficiency, starvation, snapshot latency) at the end.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/topology"
	"effnetscale/internal/train"
)

func main() {
	var (
		model      = flag.String("model", "pico", "model variant (pico, nano, micro, b0..b7)")
		replicas   = flag.Int("replicas", 4, "number of data-parallel replicas")
		shards     = flag.Int("model-shards", 1, "model-parallel shards per replica group: lays -replicas ranks out as a (replicas/shards)×shards mesh (must divide -replicas; 1 = pure data parallelism)")
		perBatch   = flag.Int("per-replica-batch", 16, "per-replica batch size")
		opt        = flag.String("optimizer", "lars", "optimizer: sgd, rmsprop, lars")
		lrPer256   = flag.Float64("lr-per-256", 40, "learning rate per 256 samples (linear scaling rule; LARS wants ~40, SGD ~0.4)")
		decay      = flag.String("decay", "polynomial", "LR decay: polynomial, exponential, cosine, constant")
		warmup     = flag.Float64("warmup-epochs", 2, "linear warmup epochs")
		epochs     = flag.Int("epochs", 8, "training epochs")
		bnGroup    = flag.Int("bn-group", 1, "distributed batch-norm group size (1 = local)")
		gradAccum  = flag.Int("grad-accum", 1, "gradient-accumulation micro-batches per step")
		classes    = flag.Int("classes", 8, "number of SynthImageNet classes")
		trainSize  = flag.Int("train-size", 2048, "training images")
		resolution = flag.Int("resolution", 32, "image resolution")
		seed       = flag.Int64("seed", 42, "global seed")
		fp32       = flag.Bool("fp32", false, "disable bf16 convolutions")
		wd         = flag.Float64("weight-decay", 1e-5, "L2 weight decay")
		smoothing  = flag.Float64("label-smoothing", 0.1, "label smoothing")
		estimator  = flag.Bool("estimator-eval", false, "use the TPUEstimator-style serialized eval loop instead of the distributed loop")
		evalPer    = flag.Int("eval-samples", 64, "eval samples per replica per evaluation")
		targetAcc  = flag.Float64("target-acc", 0, "stop when eval accuracy reaches this (0 = run all epochs)")
		bnMomentum = flag.Float64("bn-momentum", 0.9, "BN running-stats momentum (TF full-scale default is 0.99; short runs want 0.9)")
		emaDecay   = flag.Float64("ema", 0, "weight-EMA decay (0 = disabled; reference setup evaluates EMA weights)")
		collective = flag.String("collective", "ring", "gradient/BN all-reduce algorithm: ring, tree, torus2d, auto")
		gradBucket = flag.Int("grad-bucket", 0, "gradient bucket size in bytes for overlapped reduction (0 = default 32 KiB)")
		noOverlap  = flag.Bool("no-backward-overlap", false, "dispatch gradient buckets only after backward completes (bit-identical A/B baseline for the in-backward overlap)")
		prefetch   = flag.Int("prefetch", replica.DefaultPrefetchDepth, "input-pipeline depth: batches rendered ahead per replica (>= 1)")
		saveCkpt   = flag.String("save", "", "write replica 0's model here after training (a model-only snapshot)")
		bestCkpt   = flag.String("save-best", "", "write a model-only snapshot here after every best-so-far evaluation")
		loadCkpt   = flag.String("load", "", "load the model weights of any snapshot into every replica before training")
		snapDir    = flag.String("snapshot-dir", "", "directory for periodic full training-state snapshots (step-<n>.ckpt)")
		snapEvery  = flag.Int("snapshot-every", 0, "write a training-state snapshot every N steps (0 = off; needs -snapshot-dir)")
		keepLast   = flag.Int("keep-last", 3, "retain only the N most recent snapshots (0 = keep all)")
		resume     = flag.String("resume", "", "resume bit-for-bit from a snapshot file or directory (newest readable snapshot wins)")
		elastic    = flag.Bool("elastic", false, "with -resume: reshard the snapshot to this run's -replicas (global batch preserved; -per-replica-batch and -grad-accum become factorization hints)")
		killAt     = flag.Int("kill-at-step", 0, "crash the process (exit 3) after this global step — preemption drill for the resume path (0 = off)")
		telJSONL   = flag.String("telemetry-jsonl", "", "stream per-step/epoch/eval telemetry records to this JSONL file")
		telCSV     = flag.String("telemetry-csv", "", "stream per-step telemetry rows to this CSV file")
		telConsole = flag.Bool("telemetry-console", false, "print a live per-epoch telemetry summary (img/s, step phases, overlap, ETA)")
	)
	flag.Parse()

	decayKind, err := train.DecayByName(*decay)
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnettrain:", err)
		os.Exit(2)
	}
	var strategy train.EvalStrategy = train.Distributed{}
	if *estimator {
		strategy = train.Estimator{}
	}
	precision := bf16.DefaultPolicy
	if *fp32 {
		precision = bf16.FP32Policy
	}
	// The torus-based collectives lay the replicas out on a near-square
	// rank grid (a zero Slice); pass an explicit geometry via the train API
	// when modelling a specific slice.
	prov, err := comm.ProviderByName(*collective, topology.Slice{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnettrain:", err)
		os.Exit(2)
	}

	if *shards < 1 || *replicas%*shards != 0 {
		fmt.Fprintf(os.Stderr, "effnettrain: -model-shards %d must divide -replicas %d\n", *shards, *replicas)
		os.Exit(2)
	}

	opts := []train.Option{
		train.WithModel(*model),
		train.WithWorld(*replicas),
		// The mesh lays the same ranks out as data × model axes; with
		// -model-shards 1 this is WithWorld(replicas), bit for bit.
		train.WithMesh(*replicas / *shards, *shards),
		train.WithPerReplicaBatch(*perBatch),
		train.WithGradAccum(*gradAccum),
		train.WithData(data.Config{
			NumClasses: *classes,
			TrainSize:  *trainSize,
			ValSize:    *trainSize / 4,
			Resolution: *resolution,
			NoiseStd:   0.25,
			Seed:       *seed,
		}),
		train.WithOptimizer(*opt, *wd),
		train.WithLinearScaling(*lrPer256, *warmup, decayKind),
		train.WithBNGroup(*bnGroup),
		train.WithPrecision(precision),
		train.WithLabelSmoothing(*smoothing),
		train.WithSeed(*seed),
		train.WithDropout(train.ModelDefaultRate, train.ModelDefaultRate),
		train.WithBNMomentum(*bnMomentum),
		train.WithEpochs(*epochs),
		train.WithEvalSamples(*evalPer),
		train.WithEvalStrategy(strategy),
		train.WithTarget(*targetAcc),
		train.WithCollective(prov),
		train.WithPrefetch(*prefetch),
		train.WithCallbacks(train.Progress(func(s string) { fmt.Println(s) })),
	}
	// Telemetry: any -telemetry-* flag attaches the recorder; file sinks are
	// flushed by Session.Close and the files closed on exit.
	var sinks []telemetry.Sink
	telemetryOn := *telConsole
	for _, f := range []struct {
		path string
		mk   func(io.Writer) telemetry.Sink
	}{
		{*telJSONL, func(w io.Writer) telemetry.Sink { return telemetry.NewJSONL(w) }},
		{*telCSV, func(w io.Writer) telemetry.Sink { return telemetry.NewCSV(w) }},
	} {
		if f.path == "" {
			continue
		}
		file, err := os.Create(f.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "effnettrain:", err)
			os.Exit(1)
		}
		defer file.Close()
		sinks = append(sinks, f.mk(file))
		telemetryOn = true
	}
	if *telConsole {
		sinks = append(sinks, telemetry.NewConsole(func(s string) { fmt.Println(s) }))
	}
	if telemetryOn {
		opts = append(opts, train.WithTelemetry(sinks...))
	}
	if *gradBucket != 0 {
		opts = append(opts, train.WithGradBuckets(*gradBucket))
	}
	if *noOverlap {
		opts = append(opts, train.WithoutBackwardOverlap())
	}
	if *emaDecay > 0 {
		opts = append(opts, train.WithEMA(*emaDecay))
	}
	if *bestCkpt != "" {
		opts = append(opts, train.WithBestCheckpoint(*bestCkpt))
	}
	if *snapDir != "" {
		opts = append(opts, train.WithSnapshotDir(*snapDir), train.WithKeepLast(*keepLast))
	}
	if *snapEvery > 0 {
		opts = append(opts, train.WithSnapshotEvery(*snapEvery))
	}
	if *elastic && *resume == "" {
		fmt.Fprintln(os.Stderr, "effnettrain: -elastic needs -resume (there is no snapshot to reshard)")
		os.Exit(2)
	}
	if *resume != "" {
		if *elastic {
			opts = append(opts, train.WithElasticResume(*resume))
		} else {
			opts = append(opts, train.WithResume(*resume))
		}
	}
	if *killAt > 0 {
		opts = append(opts, train.WithCallbacks(train.Funcs{
			Step: func(s *train.Session, step int, _ replica.StepResult) {
				if step >= *killAt {
					// Simulated preemption: no flushing, no goodbyes — the
					// resume path must cope with whatever snapshots already
					// made it to disk.
					fmt.Printf("effnettrain: killed at step %d (preemption drill)\n", step)
					os.Exit(3)
				}
			},
		}))
	}

	sess, err := train.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "effnettrain:", err)
		os.Exit(1)
	}
	defer closeSession(sess)
	// die flushes the session (telemetry sinks included — os.Exit skips
	// defers, and the telemetry of a failed run is exactly what explains
	// it) before exiting non-zero.
	die := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"effnettrain:"}, args...)...)
		closeSession(sess)
		os.Exit(1)
	}
	if *loadCkpt != "" {
		if err := sess.LoadCheckpoint(*loadCkpt); err != nil {
			die(err)
		}
		fmt.Printf("effnettrain: restored %s into %d replicas\n", *loadCkpt, *replicas)
	}
	if path, step, ok := sess.ResumedFrom(); ok {
		fmt.Printf("effnettrain: resumed from %s at step %d\n", path, step)
	}

	fmt.Printf("effnettrain: %s on %d replicas (mesh %s), global batch %d, %s + %s decay (peak LR %.3f), BN group %d, %s all-reduce, %s eval, prefetch %d\n",
		*model, *replicas, sess.Engine().Mesh(), sess.GlobalBatch(), *opt, *decay, schedule.ScaledLR(*lrPer256, sess.GlobalBatch()), *bnGroup, sess.Engine().Algorithm(), strategy.Name(), sess.Engine().Prefetching())

	res, err := sess.Run()
	if err != nil {
		die(err)
	}

	fmt.Printf("\npeak top-1 %.4f at %v (total %v, %d steps, eval wall %v)\n",
		res.PeakAccuracy, res.TimeToPeak.Round(1e6), res.TotalTime.Round(1e6), res.StepsRun, res.EvalWallTime.Round(1e6))
	if res.Telemetry != nil {
		fmt.Println(res.Telemetry)
	}
	for _, cerr := range res.CheckpointErrors {
		fmt.Fprintln(os.Stderr, "effnettrain: checkpoint:", cerr)
	}
	if sync := sess.Engine().WeightsInSync(); sync != "" {
		die(fmt.Sprintf("WARNING replicas out of sync at %s", sync))
	}
	if *saveCkpt != "" {
		if err := sess.SaveCheckpoint(*saveCkpt); err != nil {
			die(err)
		}
		fmt.Println("effnettrain: checkpoint written to", *saveCkpt)
	}
}

// closeSession closes sess (idempotent) and surfaces telemetry sink flush
// failures, which would otherwise vanish with the run's exit status intact.
func closeSession(sess *train.Session) {
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "effnettrain:", err)
	}
}
