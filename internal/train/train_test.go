package train

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
)

// miniOpts is a tiny fast-training configuration shared by the loop tests.
func miniOpts(world, perBatch, bnGroup int, extra ...Option) []Option {
	base := []Option{
		WithModel("pico"),
		WithWorld(world),
		WithPerReplicaBatch(perBatch),
		WithBNGroup(bnGroup),
		WithData(data.MiniConfig(4, 256, 16)),
		WithOptimizer("sgd", 0),
		WithSchedule(schedule.Constant(0.1)),
		WithPrecision(bf16.FP32Policy),
		WithSeed(3),
		WithoutAugmentation(),
		WithEpochs(3),
		WithEvalSamples(16),
	}
	return append(base, extra...)
}

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no dataset", []Option{WithWorld(2)}, "dataset is required"},
		{"bad world", []Option{WithWorld(0)}, "world 0"},
		{"bad batch", []Option{WithPerReplicaBatch(-1)}, "per-replica batch"},
		{"bad epochs", []Option{WithEpochs(0)}, "epochs 0"},
		{"bad grad accum", []Option{WithGradAccum(0)}, "grad-accum"},
		{"bad smoothing", []Option{WithLabelSmoothing(1.5)}, "label smoothing"},
		{"bad bn momentum", []Option{WithBNMomentum(1)}, "BN momentum"},
		{"bad ema", []Option{WithEMA(1)}, "EMA decay"},
		{"bad target", []Option{WithTarget(2)}, "target accuracy"},
		{"bad lr", []Option{WithLinearScaling(0, 1, PolynomialDecay)}, "lr-per-256"},
		{"bad decay", []Option{WithLinearScaling(1, 1, Decay("linear"))}, "unknown decay"},
		{"nil schedule", []Option{WithSchedule(nil)}, "schedule"},
		{"nil strategy", []Option{WithEvalStrategy(nil)}, "strategy"},
		{"nil callback", []Option{WithCallbacks(nil)}, "callback"},
		{"nil option", []Option{nil}, "nil Option"},
		{"empty model", []Option{WithModel("")}, "model name"},
		{"empty ckpt path", []Option{WithBestCheckpoint("")}, "checkpoint path"},
		{"bad prefetch", []Option{WithPrefetch(0)}, "prefetch depth"},
		{"bn group does not divide", miniOpts(4, 2, 3), "does not divide"},
		{"unknown model", miniOpts(2, 2, 1, WithModel("b99")), "unknown model"},
		{"unknown optimizer", miniOpts(2, 2, 1, WithOptimizer("adagrad", 0)), "unknown optimizer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.opts...)
			if err == nil {
				t.Fatalf("New(%s) did not error", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestPrefetchOptionsPlumbThrough(t *testing.T) {
	shallow, err := New(miniOpts(2, 4, 1, WithPrefetch(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer shallow.Close()
	deep, err := New(miniOpts(2, 4, 1, WithPrefetch(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer deep.Close()
	for want, sess := range map[int]*Session{1: shallow, 3: deep} {
		if got := sess.Engine().Prefetching(); got != want {
			t.Fatalf("WithPrefetch(%d): engine depth %d", want, got)
		}
	}
	def, err := New(miniOpts(2, 4, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if got := def.Engine().Prefetching(); got != replica.DefaultPrefetchDepth {
		t.Fatalf("default: engine depth %d, want %d", got, replica.DefaultPrefetchDepth)
	}
	// Depth is trajectory-neutral: both runs evaluate bit-for-bit alike.
	resShallow, err := shallow.Run()
	if err != nil {
		t.Fatal(err)
	}
	resDeep, err := deep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accuracies(resShallow), accuracies(resDeep)) {
		t.Fatalf("depth 1 evals %v != depth 3 evals %v", accuracies(resShallow), accuracies(resDeep))
	}
	deep.Close() // double Close is safe
}

// accuracies lists a run's evaluation accuracies in order.
func accuracies(res *Result) []float64 {
	out := make([]float64, len(res.History))
	for i, pt := range res.History {
		out[i] = pt.Accuracy
	}
	return out
}

func TestDecayByName(t *testing.T) {
	for _, name := range []string{"polynomial", "exponential", "cosine", "constant"} {
		if d, err := DecayByName(name); err != nil || string(d) != name {
			t.Fatalf("DecayByName(%q) = %v, %v", name, d, err)
		}
	}
	if _, err := DecayByName("linear"); err == nil {
		t.Fatal("unknown decay must error")
	}
}

func TestCallbackFiringOrder(t *testing.T) {
	var events []string
	record := func(tag string) Callback {
		return Funcs{
			Step:       func(*Session, int, replica.StepResult) { events = append(events, tag+":step") },
			Eval:       func(*Session, EvalPoint) { events = append(events, tag+":eval") },
			Checkpoint: func(*Session, string, error) { events = append(events, tag+":ckpt") },
			End:        func(*Session, *Result) { events = append(events, tag+":end") },
		}
	}
	path := filepath.Join(t.TempDir(), "best.ckpt")
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithCallbacks(record("a")),
		WithBestCheckpoint(path),
		WithCallbacks(record("b")),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	steps := res.StepsRun
	if steps == 0 {
		t.Fatal("no steps ran")
	}
	// Expected per-callback event counts: every step, every eval, one
	// checkpoint broadcast per save attempt, one end.
	saves := res.CheckpointsSaved + len(res.CheckpointErrors)
	if saves == 0 {
		t.Fatal("BestCheckpoint never attempted a save")
	}
	var a, b []string
	for _, e := range events {
		switch {
		case strings.HasPrefix(e, "a:"):
			a = append(a, strings.TrimPrefix(e, "a:"))
		case strings.HasPrefix(e, "b:"):
			b = append(b, strings.TrimPrefix(e, "b:"))
		}
	}
	// Both observers see every event the same number of times: one per
	// step, one per eval, one per checkpoint attempt, one end.
	evals := len(res.History)
	for tag, seq := range map[string][]string{"a": a, "b": b} {
		if got := countOf(seq, "step"); got != steps {
			t.Fatalf("%s: OnStep fired %d times, want %d", tag, got, steps)
		}
		if got := countOf(seq, "eval"); got != evals {
			t.Fatalf("%s: OnEval fired %d times, want %d", tag, got, evals)
		}
		if got := countOf(seq, "ckpt"); got != saves {
			t.Fatalf("%s: OnCheckpoint fired %d times, want %d", tag, got, saves)
		}
		if got := countOf(seq, "end"); got != 1 {
			t.Fatalf("%s: OnEnd fired %d times, want 1", tag, got)
		}
	}
	// Shape: training steps come first, evaluation after the epoch's steps,
	// and OnEnd is the very last pair of events, in registration order.
	if a[0] != "step" || events[0] != "a:step" {
		t.Fatalf("first events %v, want a:step first", events[:2])
	}
	if events[len(events)-2] != "a:end" || events[len(events)-1] != "b:end" {
		t.Fatalf("last events %v, want a:end then b:end", events[len(events)-2:])
	}
	// Registration order holds within each broadcast: a:step always directly
	// precedes b:step, and a:eval opens each eval broadcast. The checkpoint
	// broadcast is nested inside the eval broadcast (BestCheckpoint is
	// itself a callback between a and b), so the order per improving eval is
	// a:eval, a:ckpt, b:ckpt, b:eval.
	for i, e := range events {
		if e == "a:step" && events[i+1] != "b:step" {
			t.Fatalf("event %d: a:step followed by %q, want b:step", i, events[i+1])
		}
		if e == "a:ckpt" && events[i+1] != "b:ckpt" {
			t.Fatalf("event %d: a:ckpt followed by %q, want b:ckpt", i, events[i+1])
		}
		if e == "b:eval" && events[i-1] != "a:eval" && events[i-1] != "b:ckpt" {
			t.Fatalf("event %d: b:eval preceded by %q", i, events[i-1])
		}
	}
}

func countOf(xs []string, want string) int {
	n := 0
	for _, x := range xs {
		if x == want {
			n++
		}
	}
	return n
}

func TestEstimatorDistributedParity(t *testing.T) {
	// The §3.3 bottleneck, measured deterministically: with W replicas the
	// Estimator strategy pushes W× more eval samples through a single worker
	// than the distributed strategy pushes through each worker.
	const world = 4
	run := func(strategy EvalStrategy) *Result {
		sess, err := New(miniOpts(world, 4, 1,
			WithEpochs(2),
			WithEvalSamples(8),
			WithEvalStrategy(strategy),
		)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dist := run(Distributed{})
	est := run(Estimator{})
	if est.EvalSerialSamples != world*dist.EvalSerialSamples {
		t.Fatalf("estimator serial samples = %d, want %d (= %d × distributed %d)",
			est.EvalSerialSamples, world*dist.EvalSerialSamples, world, dist.EvalSerialSamples)
	}
	// Both strategies score the same distribution; results must be in-range
	// and training must have happened in both.
	if dist.PeakAccuracy <= 0 || est.PeakAccuracy <= 0 {
		t.Fatalf("degenerate accuracies: dist %.3f est %.3f", dist.PeakAccuracy, est.PeakAccuracy)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Distributed{}).Name() != "distributed" || (Estimator{}).Name() != "estimator" {
		t.Fatal("strategy names wrong")
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 2, WithEpochs(50), WithTarget(0.5))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedGoal {
		t.Fatalf("never reached 0.5 accuracy (peak %.3f after %d steps)", res.PeakAccuracy, res.StepsRun)
	}
	if !res.Stopped || res.StepsRun >= 50*sess.Engine().StepsPerEpoch() {
		t.Fatal("did not stop early despite reaching target")
	}
}

func TestBestCheckpointSaving(t *testing.T) {
	path := filepath.Join(t.TempDir(), "best.ckpt")
	sess, err := New(miniOpts(2, 8, 2, WithEpochs(2), WithBestCheckpoint(path))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsSaved == 0 {
		t.Fatal("no best-so-far checkpoint written")
	}
	if len(res.CheckpointErrors) != 0 {
		t.Fatalf("unexpected checkpoint errors: %v", res.CheckpointErrors)
	}
	// The checkpoint must load back into a fresh model of the same family.
	cfg, _ := efficientnet.ConfigByName("pico", 4)
	cfg.Resolution = 16
	fresh := efficientnet.New(rand.New(rand.NewSource(123)), cfg)
	snap, err := checkpoint.ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("best checkpoint unreadable: %v", err)
	}
	if err := snap.Restore(checkpoint.ModelState(fresh)); err != nil {
		t.Fatalf("best checkpoint unloadable: %v", err)
	}
}

// TestLoadCheckpoint: LoadCheckpoint restores the model component of any
// snapshot — SaveCheckpoint's model-only file or a full training snapshot —
// into every replica, and a rejected file leaves every replica as it was.
func TestLoadCheckpoint(t *testing.T) {
	src, err := New(miniOpts(2, 8, 2, WithEpochs(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelOnly, full := filepath.Join(dir, "model.ckpt"), filepath.Join(dir, "step-000000001.ckpt")
	if err := src.SaveCheckpoint(modelOnly); err != nil {
		t.Fatal(err)
	}
	if err := src.Snapshot(full); err != nil {
		t.Fatal(err)
	}
	want := src.Engine().Replica(0).Model.Params()

	for _, path := range []string{modelOnly, full, dir} {
		dst, err := New(miniOpts(2, 8, 2, WithEpochs(1), WithSeed(99))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadCheckpoint(path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for r := 0; r < dst.Engine().World(); r++ {
			for i, p := range dst.Engine().Replica(r).Model.Params() {
				if !reflect.DeepEqual(p.Data().Data(), want[i].Data().Data()) {
					t.Fatalf("load %s: replica %d param %s differs from the saved model", path, r, p.Name)
				}
			}
		}
		dst.Close()
	}

	// A snapshot whose model component carries a parameter the architecture
	// lacks is rejected before anything is written: replicas stay in sync
	// and keep the weights they had.
	snap, err := checkpoint.ReadSnapshotFile(modelOnly)
	if err != nil {
		t.Fatal(err)
	}
	snap.Components["model"].PutF32("param/ghost.w", []int{2}, []float32{1, 2})
	bad := filepath.Join(dir, "bad.ckpt")
	if err := checkpoint.WriteSnapshotFile(bad, snap); err != nil {
		t.Fatal(err)
	}
	dst, err := New(miniOpts(2, 8, 2, WithEpochs(1), WithSeed(99))...)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	before := append([]float32(nil), dst.Engine().Replica(0).Model.Params()[0].Data().Data()...)
	if err := dst.LoadCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "ghost.w") {
		t.Fatalf("load of surplus-parameter checkpoint = %v, want error naming ghost.w", err)
	}
	if d := dst.Engine().WeightsInSync(); d != "" {
		t.Fatalf("replicas out of sync after a rejected load: %s", d)
	}
	if !reflect.DeepEqual(before, dst.Engine().Replica(0).Model.Params()[0].Data().Data()) {
		t.Fatal("rejected load overwrote replica 0's weights")
	}
}

func TestCheckpointErrorsSurfaceInResult(t *testing.T) {
	// An unwritable checkpoint path must not abort training, but the
	// failures must be first-class in the Result — not only whispered
	// through a progress callback.
	path := filepath.Join(t.TempDir(), "no-such-dir", "best.ckpt")
	var notified int
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithBestCheckpoint(path),
		WithCallbacks(Funcs{Checkpoint: func(_ *Session, _ string, err error) {
			if err != nil {
				notified++
			}
		}}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun == 0 {
		t.Fatal("training aborted by checkpoint failure")
	}
	if len(res.CheckpointErrors) == 0 {
		t.Fatal("checkpoint failures not surfaced in Result.CheckpointErrors")
	}
	if res.CheckpointsSaved != 0 {
		t.Fatalf("CheckpointsSaved = %d for unwritable path", res.CheckpointsSaved)
	}
	if notified != len(res.CheckpointErrors) {
		t.Fatalf("OnCheckpoint notified %d failures, Result has %d", notified, len(res.CheckpointErrors))
	}
}

func TestTrailingAccuracyWindow(t *testing.T) {
	ta := NewTrailingAccuracy(2)
	for _, acc := range []float64{0.1, 0.3, 0.5} {
		ta.OnStep(nil, 0, replica.StepResult{Accuracy: acc})
	}
	if got := ta.Mean(); got != 0.4 {
		t.Fatalf("trailing mean = %v, want 0.4 (last two of three)", got)
	}
}

func TestSessionRerunContinuesTraining(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(1))...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.StepsRun == 0 || second.StepsRun == 0 {
		t.Fatal("rerun did not train")
	}
	if sync := sess.Engine().WeightsInSync(); sync != "" {
		t.Fatalf("replicas out of sync after rerun: %s", sync)
	}
}

func TestMiniRecipeReachesAccuracy(t *testing.T) {
	// The preset smoke test: the MiniRecipe composition (LARS + linear
	// scaling + warmup + poly decay + distributed BN + bf16) must clear 0.5
	// top-1 on 8-class SynthImageNet — far above the 0.125 chance rate. The
	// dataset is downscaled (resolution 16) and the run early-stops at 0.55
	// to keep the test fast; the recipe math is untouched.
	sess, err := New(
		MiniRecipe(),
		WithData(data.MiniConfig(8, 2048, 16)),
		WithEpochs(6),
		WithEvalEvery(16),
		WithTarget(0.55),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakAccuracy <= 0.5 {
		t.Fatalf("MiniRecipe peak top-1 %.3f, want > 0.5", res.PeakAccuracy)
	}
	if sync := sess.Engine().WeightsInSync(); sync != "" {
		t.Fatalf("replicas out of sync: %s", sync)
	}
}
