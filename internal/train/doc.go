// Package train is the one way to assemble and run a training job: a
// composable public API over the replica engine. A Session is built from
// functional options (validated eagerly, no panics, written straight into
// the engine's replica.Config), runs the step/evaluate/snapshot loop itself,
// is observed through Callback hooks, and is evaluated through a pluggable
// EvalStrategy — the composition of mechanisms behind the paper's
// headline result (LARS, linear LR scaling + warmup, distributed batch
// norm, bf16, and the distributed train+eval loop of §3.3) becomes
// one-option-away instead of one-copied-main-away:
//
//	sess, err := train.New(
//	    train.MiniRecipe(),                 // the paper recipe at laptop scale
//	    train.WithEpochs(3),                // override anything after a preset
//	    train.WithCallbacks(train.Progress(func(s string) { fmt.Println(s) })),
//	)
//	if err != nil { ... }
//	defer sess.Close()
//	res, err := sess.Run()
//
// Seams: Option configures (presets first, overrides after — options apply
// in order); Callback observes (OnStep/OnEval/OnCheckpoint/OnEnd, adapted
// from plain funcs via Funcs); EvalStrategy selects the §3.3 loop structure
// (Distributed vs Estimator); WithSnapshotEvery/WithResume run the
// checkpoint subsystem end to end; WithTelemetry attaches the step-phase
// telemetry subsystem (sinks: telemetry.NewJSONL/NewCSV/NewConsole) and
// fills Result.Telemetry with the run's throughput/phase/overlap summary.
//
// Paper: §3.1–3.5 compose here; Result carries Figure 1's time-to-peak
// metric and §3.3's serialized-evaluation counts.
package train
