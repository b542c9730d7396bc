package replica

import (
	"math"
	"reflect"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/data"
	"effnetscale/internal/schedule"
)

func miniEngineConfig(world, perBatch, bnGroup int) Config {
	ds := data.New(data.MiniConfig(4, 256, 16))
	return Config{
		World:               world,
		PerReplicaBatch:     perBatch,
		Model:               "pico",
		Dataset:             ds,
		OptimizerName:       "sgd",
		WeightDecay:         0,
		Schedule:            schedule.Constant(0.05),
		BNGroupSize:         bnGroup,
		Precision:           bf16.FP32Policy,
		LabelSmoothing:      0,
		Seed:                7,
		DropoutOverride:     0,
		DropConnectOverride: 0,
		NoAugment:           true,
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := miniEngineConfig(4, 2, 1)
	cfg.World = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("world 0 must error")
	}
	cfg = miniEngineConfig(4, 2, 3)
	if _, err := New(cfg); err == nil {
		t.Fatal("non-dividing BN group must error")
	}
	cfg = miniEngineConfig(4, 2, 1)
	cfg.Model = "b99"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown model must error")
	}
	cfg = miniEngineConfig(4, 2, 1)
	cfg.OptimizerName = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown optimizer must error")
	}
	cfg = miniEngineConfig(4, 2, 1)
	cfg.Dataset = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil dataset must error")
	}
}

func TestReplicasStayInSync(t *testing.T) {
	// The defining invariant of synchronous data parallelism: after any
	// number of steps, all replicas hold bitwise-identical weights.
	e, err := New(miniEngineConfig(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.WeightsInSync(); d != "" {
		t.Fatalf("replicas differ at init: %s", d)
	}
	// Every rank builds its model from the same seed, so BN running
	// statistics (which WeightsInSync does not cover) start equal too.
	ref := e.Replica(0).Model.BatchNorms()
	for r := 1; r < e.World(); r++ {
		for i, bn := range e.Replica(r).Model.BatchNorms() {
			if !reflect.DeepEqual(bn.RunningMean.Data(), ref[i].RunningMean.Data()) ||
				!reflect.DeepEqual(bn.RunningVar.Data(), ref[i].RunningVar.Data()) {
				t.Fatalf("rank %d BN %d running statistics differ from rank 0's at init", r, i)
			}
		}
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if d := e.WeightsInSync(); d != "" {
		t.Fatalf("replicas diverged after training: %s", d)
	}
}

func TestReplicasStayInSyncWithDistributedBN(t *testing.T) {
	e, err := New(miniEngineConfig(4, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if d := e.WeightsInSync(); d != "" {
		t.Fatalf("replicas diverged with distributed BN: %s", d)
	}
}

func TestDataParallelEquivalence(t *testing.T) {
	// 4 replicas × batch 4 with full-world BN must match 1 replica × batch
	// 16 step for step (same global batch content, same full-batch BN
	// statistics), up to floating-point reduction order.
	multi, err := New(miniEngineConfig(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(miniEngineConfig(1, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rm := mustStep(t, multi)
		rs := mustStep(t, single)
		if math.Abs(rm.Loss-rs.Loss) > 1e-3*(1+math.Abs(rs.Loss)) {
			t.Fatalf("step %d: multi loss %v vs single loss %v", i, rm.Loss, rs.Loss)
		}
	}
	// Weights must agree closely after the steps.
	mp := multi.Replica(0).Model.Params()
	sp := single.Replica(0).Model.Params()
	var maxDiff float64
	for i := range mp {
		a, b := mp[i].Data().Data(), sp[i].Data().Data()
		for j := range a {
			d := math.Abs(float64(a[j] - b[j]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 5e-4 {
		t.Fatalf("weights diverged between multi and single: max diff %v", maxDiff)
	}
}

func TestGlobalBatchAndSteps(t *testing.T) {
	e, err := New(miniEngineConfig(4, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e.GlobalBatch() != 32 {
		t.Fatalf("GlobalBatch = %d, want 32", e.GlobalBatch())
	}
	if e.StepsPerEpoch() != 8 { // 256 / 32
		t.Fatalf("StepsPerEpoch = %d, want 8", e.StepsPerEpoch())
	}
}

func TestStepMetricsSane(t *testing.T) {
	e, err := New(miniEngineConfig(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := mustStep(t, e)
	if r.Loss <= 0 || math.IsNaN(r.Loss) {
		t.Fatalf("loss = %v", r.Loss)
	}
	// 4 classes: untrained accuracy should be below ~0.8 and >= 0.
	if r.Accuracy < 0 || r.Accuracy > 1 {
		t.Fatalf("accuracy = %v out of range", r.Accuracy)
	}
	if r.LR != 0.05 {
		t.Fatalf("LR = %v, want 0.05", r.LR)
	}
}

func TestEvaluateDistributed(t *testing.T) {
	e, err := New(miniEngineConfig(4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	acc := mustEval(t, e, 8)
	if acc < 0 || acc > 1 {
		t.Fatalf("eval accuracy = %v out of range", acc)
	}
	// Evaluation must not change weights.
	before := e.Replica(0).Model.Params()[0].Data().Clone()
	e.Evaluate(4)
	after := e.Replica(0).Model.Params()[0].Data()
	for i := range before.Data() {
		if before.Data()[i] != after.Data()[i] {
			t.Fatal("evaluation mutated weights")
		}
	}
}

func TestMiniTrainingLearns(t *testing.T) {
	// Full-stack integration: 2 replicas, distributed BN, real SynthImageNet
	// — training accuracy must rise well above chance (25% for 4 classes).
	cfg := miniEngineConfig(2, 8, 2)
	cfg.OptimizerName = "sgd"
	cfg.Schedule = schedule.Warmup{Epochs: 1, Inner: schedule.Constant(0.1)}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last StepResult
	steps := 3 * e.StepsPerEpoch() // 3 epochs
	var accSum float64
	var accN int
	for i := 0; i < steps; i++ {
		last = mustStep(t, e)
		if i >= steps-8 {
			accSum += last.Accuracy
			accN++
		}
	}
	finalAcc := accSum / float64(accN)
	if finalAcc < 0.5 {
		t.Fatalf("training accuracy after %d steps = %.3f, want > 0.5 (chance = 0.25); last loss %.3f", steps, finalAcc, last.Loss)
	}
	if d := e.WeightsInSync(); d != "" {
		t.Fatalf("replicas diverged: %s", d)
	}
}
