package replica

import (
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
)

// newTelemetryEngine builds a small multi-replica engine with grad
// accumulation, distributed BN and small buckets — every instrumented path
// lit up at once (and raced over by `go test -race`).
func newTelemetryEngine(t *testing.T, rec *telemetry.Recorder, prefetch int, tweaks ...func(*Config)) *Engine {
	t.Helper()
	ds := data.New(data.MiniConfig(4, 256, 16))
	cfg := Config{
		World:           4,
		PerReplicaBatch: 2,
		Model:           "pico",
		Dataset:         ds,
		OptimizerName:   "sgd",
		Schedule:        schedule.Constant(0.05),
		BNGroupSize:     2,
		Precision:       bf16.FP32Policy,
		Seed:            1,
		GradAccumSteps:  2,
		GradBucketBytes: 32 << 10,
		Collective:      comm.TreeProvider(),
		PrefetchDepth:   prefetch,
		Telemetry:       rec,
	}
	for _, tw := range tweaks {
		tw(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestEngineTelemetry steps an instrumented engine and checks the recorded
// step stream: phase coverage, collective accounting from the instrumented
// collectives, and agreement with the engine's own metrics.
func TestEngineTelemetry(t *testing.T) {
	var steps []telemetry.StepRecord
	rec := telemetry.NewRecorder(telemetry.SinkFuncs{
		StepFn: func(r telemetry.StepRecord) { steps = append(steps, r) },
	})
	eng := newTelemetryEngine(t, rec, 0)

	const n = 3
	var results []StepResult
	for i := 0; i < n; i++ {
		results = append(results, mustStep(t, eng))
	}
	if len(steps) != n {
		t.Fatalf("recorded %d steps, want %d", len(steps), n)
	}
	for i, r := range steps {
		if r.Step != i+1 {
			t.Fatalf("step %d numbered %d", i, r.Step)
		}
		if r.Wall <= 0 {
			t.Fatalf("step %d wall = %v", i, r.Wall)
		}
		if r.GlobalBatch != eng.GlobalBatch() {
			t.Fatalf("step %d global batch = %d, want %d", i, r.GlobalBatch, eng.GlobalBatch())
		}
		if r.Loss != results[i].Loss || r.Accuracy != results[i].Accuracy || r.LR != results[i].LR {
			t.Fatalf("step %d metrics diverge from StepResult: %+v vs %+v", i, r, results[i])
		}
		// Compute phases must have been timed on every step.
		for _, p := range []telemetry.Phase{telemetry.PhaseForward, telemetry.PhaseBackward, telemetry.PhaseReduce, telemetry.PhaseOptimizer} {
			if r.Phases[p] <= 0 {
				t.Fatalf("step %d phase %s = %v, want > 0", i, p, r.Phases[p])
			}
		}
		// World 4 with ~290KB of gradients in 32KiB buckets: the gradient
		// stream alone is many collectives; BN groups and metrics add more.
		if r.Collectives.Count < 10 {
			t.Fatalf("step %d observed %d collectives", i, r.Collectives.Count)
		}
		if r.Collectives.Bytes <= 0 || r.Collectives.Busy <= 0 {
			t.Fatalf("step %d collective totals = %+v", i, r.Collectives)
		}
		if eff := r.OverlapEfficiency(); eff < 0 || eff > 1 {
			t.Fatalf("step %d overlap efficiency %g out of [0,1]", i, eff)
		}
	}
	sum := rec.Summary()
	if sum.Steps != n || sum.Images != int64(n*eng.GlobalBatch()) {
		t.Fatalf("summary = %d steps / %d images", sum.Steps, sum.Images)
	}
}

// TestEngineTelemetryPrefetchMatchesInline verifies instrumentation is
// observation only: with and without telemetry, at pipeline depths 1 and 3,
// and with the in-backward overlap disabled, the training trajectory is
// bit-for-bit identical.
func TestEngineTelemetryPrefetchMatchesInline(t *testing.T) {
	plain := newTelemetryEngine(t, nil, 1)
	instr := newTelemetryEngine(t, telemetry.NewRecorder(), 3)
	serial := newTelemetryEngine(t, telemetry.NewRecorder(), 3, func(c *Config) { c.NoBackwardOverlap = true })
	for i := 0; i < 3; i++ {
		a, b, c := mustStep(t, plain), mustStep(t, instr), mustStep(t, serial)
		if a.Loss != b.Loss || a.Accuracy != b.Accuracy {
			t.Fatalf("step %d: instrumented trajectory diverged: %+v vs %+v", i, a, b)
		}
		if a.Loss != c.Loss || a.Accuracy != c.Accuracy {
			t.Fatalf("step %d: serialized-reduction trajectory diverged: %+v vs %+v", i, a, c)
		}
	}
	if sync := instr.WeightsInSync(); sync != "" {
		t.Fatalf("instrumented replicas out of sync at %s", sync)
	}
	for i, p := range plain.Replica(0).Model.Params() {
		q := instr.Replica(0).Model.Params()[i]
		r := serial.Replica(0).Model.Params()[i]
		ad, bd, cd := p.Data().Data(), q.Data().Data(), r.Data().Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("weights diverge at %s[%d]", p.Name, j)
			}
			if ad[j] != cd[j] {
				t.Fatalf("serialized weights diverge at %s[%d]", p.Name, j)
			}
		}
	}
}

// TestEngineTelemetryEvaluate checks instrumented evaluation still reduces
// correctly (the eval collectives flow through the same instrumented
// endpoints).
func TestEngineTelemetryEvaluate(t *testing.T) {
	rec := telemetry.NewRecorder()
	eng := newTelemetryEngine(t, rec, 2)
	eng.Step()
	acc := mustEval(t, eng, 16)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %g out of range", acc)
	}
}
