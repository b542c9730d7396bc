package replica

import (
	"errors"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/data"
	"effnetscale/internal/schedule"
)

// prefetchEngine builds a world-4 mini engine whose input pipelines buffer
// depth batches ahead (0 = DefaultPrefetchDepth), closed at test end.
func prefetchEngine(t *testing.T, cfg Config, depth int) *Engine {
	t.Helper()
	cfg.PrefetchDepth = depth
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestPrefetchMatchesInline is the acceptance test for the input pipeline:
// pipeline depth is trajectory-neutral. With augmentation on and gradient
// accumulation, the shallowest pipeline (depth 1: one batch rendered ahead,
// the closest to rendering inline) and a deep one must produce
// bitwise-identical loss trajectories and weights.
func TestPrefetchMatchesInline(t *testing.T) {
	cfg := miniEngineConfig(4, 4, 4)
	cfg.NoAugment = false
	cfg.GradAccumSteps = 2
	shallow, deep := prefetchEngine(t, cfg, 1), prefetchEngine(t, cfg, 3)
	if shallow.Prefetching() != 1 || deep.Prefetching() != 3 {
		t.Fatalf("depths %d/%d, want 1/3", shallow.Prefetching(), deep.Prefetching())
	}
	if d := prefetchEngine(t, cfg, 0).Prefetching(); d != DefaultPrefetchDepth {
		t.Fatalf("zero PrefetchDepth resolved to %d, want %d", d, DefaultPrefetchDepth)
	}
	cfg.PrefetchDepth = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative prefetch depth must error")
	}
	steps := shallow.StepsPerEpoch() + 2 // cross an epoch boundary
	for i := 0; i < steps; i++ {
		rs, rd := mustStep(t, shallow), mustStep(t, deep)
		if rs.Loss != rd.Loss || rs.Accuracy != rd.Accuracy {
			t.Fatalf("step %d: depth 1 (loss %v acc %v) != depth 3 (loss %v acc %v)", i, rs.Loss, rs.Accuracy, rd.Loss, rd.Accuracy)
		}
	}
	pp, ip := shallow.Replica(0).Model.Params(), deep.Replica(0).Model.Params()
	for i := range pp {
		a, b := pp[i].Data().Data(), ip[i].Data().Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("weights diverged at %s[%d]", pp[i].Name, j)
			}
		}
	}
}

// TestPrefetchedEvalMatchesInline: evaluation pipelines are depth-neutral
// too, including the ragged final batch and the reused buffer pool.
func TestPrefetchedEvalMatchesInline(t *testing.T) {
	cfg := miniEngineConfig(4, 4, 1) // val split 64, shard 16 per rank
	shallow, deep := prefetchEngine(t, cfg, 1), prefetchEngine(t, cfg, 3)
	// Ragged cap: 10 samples per replica at batch 4 forces a partial final
	// batch at both depths.
	for _, cap := range []int{0, 10} {
		if a, b := mustEval(t, shallow, cap), mustEval(t, deep, cap); a != b {
			t.Fatalf("Evaluate(%d): depth 1 %v != depth 3 %v", cap, a, b)
		}
	}
	accS, nS := mustEvalSerial(t, shallow, 10)
	accD, nD := mustEvalSerial(t, deep, 10)
	if accS != accD || nS != nD {
		t.Fatalf("EvaluateSerial: depth 1 (%v, %d) != depth 3 (%v, %d)", accS, nS, accD, nD)
	}
	// Reusing the eval pool across calls must not change results.
	if a, b := mustEval(t, shallow, 10), mustEval(t, deep, 10); a != b {
		t.Fatalf("second Evaluate: depth 1 %v != depth 3 %v", a, b)
	}
}

func TestEvaluateWithEmptyValShards(t *testing.T) {
	// ValSize < World: some ranks hold empty validation shards. They must
	// contribute zero counts to the all-reduce instead of panicking.
	for _, prefetch := range []int{1, 3} {
		ds := data.New(data.Config{NumClasses: 2, TrainSize: 16, ValSize: 2, Resolution: 16, NoiseStd: 0.25, Seed: 1})
		e, err := New(Config{
			World: 4, PerReplicaBatch: 2, Model: "pico", Dataset: ds,
			OptimizerName: "sgd", Schedule: schedule.Constant(0.05),
			Precision: bf16.FP32Policy, Seed: 1, NoAugment: true,
			PrefetchDepth: prefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		acc := mustEval(t, e, 0)
		if acc < 0 || acc > 1 {
			t.Fatalf("prefetch=%d: eval accuracy %v out of range", prefetch, acc)
		}
		e.Close()
	}
}

func TestTrainSplitSmallerThanWorldErrors(t *testing.T) {
	ds := data.New(data.Config{NumClasses: 2, TrainSize: 2, ValSize: 2, Resolution: 16, NoiseStd: 0.25, Seed: 1})
	_, err := New(Config{
		World: 4, PerReplicaBatch: 1, Model: "pico", Dataset: ds,
		OptimizerName: "sgd", Schedule: schedule.Constant(0.05),
		Precision: bf16.FP32Policy, Seed: 1, NoAugment: true,
	})
	if err == nil {
		t.Fatal("train split smaller than world must error, not panic later")
	}
}

func TestCloseIsIdempotentAndStopsPipelines(t *testing.T) {
	e, err := New(miniEngineConfig(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	e.Close()
	e.Close()
	for r := 0; r < e.World(); r++ {
		if pipe := e.Replica(r).pipe; pipe != nil {
			if _, ok := pipe.Next(); ok {
				t.Fatalf("rank %d pipeline still delivering after Close", r)
			}
		}
	}
}

// TestStepAfterCloseReturnsErrClosed: a closed engine's pipelines are gone,
// so every entry point that would read them returns ErrClosed instead of
// panicking inside a replica goroutine, where no caller could recover.
func TestStepAfterCloseReturnsErrClosed(t *testing.T) {
	for _, stepFirst := range []bool{true, false} {
		e, err := New(miniEngineConfig(2, 4, 1))
		if err != nil {
			t.Fatal(err)
		}
		if stepFirst {
			mustStep(t, e)
		}
		e.Close()
		if _, err := e.Step(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Step after Close (stepped first: %t) = %v, want ErrClosed", stepFirst, err)
		}
		if _, err := e.Evaluate(4); !errors.Is(err, ErrClosed) {
			t.Fatalf("Evaluate after Close = %v, want ErrClosed", err)
		}
		if _, _, err := e.EvaluateSerial(4); !errors.Is(err, ErrClosed) {
			t.Fatalf("EvaluateSerial after Close = %v, want ErrClosed", err)
		}
	}
}
