package train

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/replica"
)

// TestStartStepResumesNumberingAndCadence: the first Run after a resume
// keeps the original global step numbers and evaluation cadence, so the
// resumed tail's steps and EvalPoints line up with the uninterrupted run's,
// and it reports the pre-resume peak. Resuming at the final step runs
// nothing, cleanly.
func TestStartStepResumesNumberingAndCadence(t *testing.T) {
	dir := t.TempDir()
	var start int
	a, err := New(resumeOpts(WithCallbacks(Funcs{Step: func(s *Session, step int, _ replica.StepResult) {
		if step == start {
			if err := s.Snapshot(filepath.Join(dir, "mid.ckpt")); err != nil {
				t.Fatal(err)
			}
		}
	}}))...) // 2 epochs, eval every 3 steps
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	spe := a.Engine().StepsPerEpoch()
	total := 2 * spe
	start = spe/2 + 1 // mid-epoch, off the cadence
	if start%3 == 0 {
		start++
	}
	full, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Snapshot(filepath.Join(dir, "end.ckpt")); err != nil {
		t.Fatal(err)
	}

	var steps []int
	b, err := New(resumeOpts(
		WithResume(filepath.Join(dir, "mid.ckpt")),
		WithCallbacks(Funcs{Step: func(_ *Session, step int, _ replica.StepResult) { steps = append(steps, step) }}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != total-start || len(steps) != total-start {
		t.Fatalf("StepsRun = %d (%d OnStep calls), want %d", res.StepsRun, len(steps), total-start)
	}
	if steps[0] != start+1 || steps[len(steps)-1] != total {
		t.Fatalf("global steps ran %d..%d, want %d..%d", steps[0], steps[len(steps)-1], start+1, total)
	}
	for _, pt := range res.History {
		if pt.Step%3 != 0 && pt.Step != total {
			t.Fatalf("eval at step %d breaks the global cadence", pt.Step)
		}
	}
	if res.PeakAccuracy != full.PeakAccuracy {
		t.Fatalf("resumed peak %v, uninterrupted peak %v", res.PeakAccuracy, full.PeakAccuracy)
	}

	c, err := New(resumeOpts(WithResume(filepath.Join(dir, "end.ckpt")))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err = c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsRun != 0 || len(res.History) != 0 || res.PeakAccuracy != full.PeakAccuracy {
		t.Fatalf("past-the-end resume ran %d steps, %d evals (peak %v), want 0, 0 (%v)",
			res.StepsRun, len(res.History), res.PeakAccuracy, full.PeakAccuracy)
	}
}

// TestSnapshotFollowsStepEval: a periodic snapshot is captured after its
// step's evaluation is recorded, so the best accuracy it carries includes
// that evaluation — the quiescent boundary a bit-for-bit resume needs.
func TestSnapshotFollowsStepEval(t *testing.T) {
	dir := t.TempDir()
	sess, err := New(miniOpts(2, 8, 1,
		WithEpochs(1),
		WithEvalEvery(2),
		WithSnapshotDir(dir),
		WithSnapshotEvery(2),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckpointErrors) != 0 || res.CheckpointsSaved != len(res.History) {
		t.Fatalf("%d snapshots (errors %v) for %d evals", res.CheckpointsSaved, res.CheckpointErrors, len(res.History))
	}
	best := 0.0
	for _, pt := range res.History {
		best = max(best, pt.Accuracy)
		snap, err := checkpoint.ReadSnapshotFile(filepath.Join(dir, fmt.Sprintf("step-%09d.ckpt", pt.Step)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Components[loopComponent].F64("best")
		if err != nil {
			t.Fatal(err)
		}
		if got != best {
			t.Fatalf("snapshot at step %d records best %v, want %v (the step's own eval included)", pt.Step, got, best)
		}
	}
}

// TestEvalEveryStepsCadence: WithEvalEvery evaluates on multiples of its
// cadence plus the final step, and TimeToPeak falls inside the run.
func TestEvalEveryStepsCadence(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(1), WithEvalEvery(5))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	spe := sess.Engine().StepsPerEpoch()
	var want []int
	for step := 5; step < spe; step += 5 {
		want = append(want, step)
	}
	want = append(want, spe)
	var got []int
	for _, pt := range res.History {
		got = append(got, pt.Step)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("evaluated at steps %v, want %v", got, want)
	}
	if res.TimeToPeak <= 0 || res.TimeToPeak > res.TotalTime {
		t.Fatalf("TimeToPeak %v outside (0, %v]", res.TimeToPeak, res.TotalTime)
	}
}

// TestStopEndsRunEarly: Session.Stop ends the run after the current step
// without forcing a final evaluation.
func TestStopEndsRunEarly(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(50), WithCallbacks(StopAfterStep(3)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StepsRun != 3 {
		t.Fatalf("stopped=%t after %d steps, want a stop after 3", res.Stopped, res.StepsRun)
	}
	if len(res.History) != 0 {
		t.Fatalf("stop forced %d evaluations, want none (cadence is once per epoch)", len(res.History))
	}
}

// TestEvalSerialSamplesAccumulate: the distributed strategy's serial count
// is the per-replica cap once per evaluation.
func TestEvalSerialSamplesAccumulate(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(2), WithEvalSamples(8))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("%d evaluations, want one per epoch", len(res.History))
	}
	sum := 0
	for _, pt := range res.History {
		sum += pt.SerialSamples
	}
	if want := 8 * len(res.History); res.EvalSerialSamples != want || sum != want {
		t.Fatalf("EvalSerialSamples = %d (points sum to %d), want %d", res.EvalSerialSamples, sum, want)
	}
}

// TestRunAfterCloseReturnsErrClosed: a closed session refuses to train with
// the engine's named error instead of crashing the process.
func TestRunAfterCloseReturnsErrClosed(t *testing.T) {
	sess, err := New(miniOpts(2, 8, 1, WithEpochs(1), WithCallbacks(StopAfterStep(1)))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, err := sess.Run(); !errors.Is(err, replica.ErrClosed) {
		t.Fatalf("Run after Close = %v, want replica.ErrClosed", err)
	}
}
