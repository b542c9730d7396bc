package train

import (
	"path/filepath"
	"strings"
	"testing"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/data"
)

// resumeOpts is the adversarial end-to-end resume configuration: world > 1,
// prefetching on (the default), augmentation on, LARS slots, EMA shadow,
// distributed BN with groups smaller than the world, linear-scaling warmup
// schedule, an eval cadence that does not divide the epoch.
func resumeOpts(extra ...Option) []Option {
	base := []Option{
		WithModel("pico"),
		WithWorld(2),
		WithPerReplicaBatch(4),
		WithBNGroup(2),
		WithData(data.MiniConfig(4, 64, 16)),
		WithOptimizer("lars", 1e-5),
		WithLinearScaling(20, 1, PolynomialDecay),
		WithSeed(11),
		WithEMA(0.9),
		WithEpochs(2),
		WithEvalEvery(3),
		WithEvalSamples(8),
	}
	return append(base, extra...)
}

// TestSessionResumeBitForBit is the acceptance test for the snapshot API:
// training interrupted at an arbitrary (mid-epoch) step and resumed from
// the on-disk snapshot yields bit-for-bit identical weights, EMA shadow,
// optimizer slots, BN statistics and eval trajectory to the uninterrupted
// run — with prefetch on, at world > 1.
func TestSessionResumeBitForBit(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference run.
	ref, err := New(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	spe := ref.Engine().StepsPerEpoch()
	// Kill mid-epoch, into the second epoch, off the eval cadence.
	killAt := spe + spe/2
	for killAt%spe == 0 || killAt%3 == 0 {
		killAt++
	}
	if killAt >= 2*spe {
		t.Fatalf("test setup: killAt %d fell outside the run (%d steps)", killAt, 2*spe)
	}

	// Interrupted run: periodic snapshots, stopped at killAt.
	interrupted, err := New(resumeOpts(
		WithSnapshotDir(dir),
		WithSnapshotEvery(2),
		WithCallbacks(StopAfterStep(killAt)),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	intRes, err := interrupted.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !intRes.Stopped || intRes.StepsRun != killAt {
		t.Fatalf("interrupted run: stopped=%t after %d steps, want stop at %d", intRes.Stopped, intRes.StepsRun, killAt)
	}
	if len(intRes.CheckpointErrors) != 0 {
		t.Fatalf("snapshot errors during interrupted run: %v", intRes.CheckpointErrors)
	}
	if intRes.CheckpointsSaved == 0 {
		t.Fatal("no periodic snapshots written")
	}
	interrupted.Close() // the "kill": session torn down, state only on disk

	// Resumed run in a "fresh process": same options, WithResume(dir).
	resumed, err := New(resumeOpts(WithResume(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if _, step, ok := resumed.ResumedFrom(); !ok || step == 0 || step > killAt {
		t.Fatalf("ResumedFrom step %d (ok=%t), want a snapshot at or before %d", step, ok, killAt)
	}
	resRes, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !resRes.Resumed {
		t.Fatal("Result.Resumed not set on the resumed run")
	}

	// The resumed run's eval trajectory must be bit-for-bit the tail of the
	// uninterrupted run's.
	if len(resRes.History) == 0 {
		t.Fatal("resumed run evaluated nothing")
	}
	tail := refRes.History[len(refRes.History)-len(resRes.History):]
	for i, pt := range resRes.History {
		want := tail[i]
		if pt.Step != want.Step || pt.Epoch != want.Epoch || pt.Accuracy != want.Accuracy {
			t.Fatalf("eval %d: resumed (step %d, acc %v) vs uninterrupted (step %d, acc %v)",
				i, pt.Step, pt.Accuracy, want.Step, want.Accuracy)
		}
	}
	if resRes.PeakAccuracy != refRes.PeakAccuracy {
		t.Fatalf("peak accuracy %v vs uninterrupted %v", resRes.PeakAccuracy, refRes.PeakAccuracy)
	}

	// Final state — weights, BN stats on every rank, optimizer slots, EMA
	// shadow, RNG cursors — must be bitwise identical. Snapshots capture
	// all of it, so compare snapshots.
	refSnap, err := ref.Engine().CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	resSnap, err := resumed.Engine().CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range refSnap.Keys() {
		ca, cb := refSnap.Components[key], resSnap.Components[key]
		if cb == nil {
			t.Fatalf("resumed snapshot missing component %q", key)
		}
		for _, bk := range ca.Keys() {
			a, b := ca[bk], cb[bk]
			if a.Str != b.Str || len(a.F32) != len(b.F32) {
				t.Fatalf("%s/%s differs after resume", key, bk)
			}
			for i := range a.F32 {
				if a.F32[i] != b.F32[i] {
					t.Fatalf("%s/%s: f32[%d] %v vs %v", key, bk, i, a.F32[i], b.F32[i])
				}
			}
			for i := range a.I64 {
				if a.I64[i] != b.I64[i] {
					t.Fatalf("%s/%s: i64[%d] %d vs %d", key, bk, i, a.I64[i], b.I64[i])
				}
			}
		}
	}
	if sync := resumed.Engine().WeightsInSync(); sync != "" {
		t.Fatalf("resumed replicas out of sync at %s", sync)
	}
}

func TestSessionSnapshotAndResumeFile(t *testing.T) {
	// Session.Snapshot writes a single resumable file; WithResume accepts
	// it directly (not just a directory).
	path := filepath.Join(t.TempDir(), "manual.ckpt")
	a, err := New(resumeOpts(WithCallbacks(StopAfterStep(3)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if err := a.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	b, err := New(resumeOpts(WithResume(path))...)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, step, ok := b.ResumedFrom(); !ok || step != 3 {
		t.Fatalf("resumed at step %d (ok=%t), want 3", step, ok)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.StepsRun != 2*b.Engine().StepsPerEpoch()-3 {
		t.Fatalf("resumed run: Resumed=%t StepsRun=%d", res.Resumed, res.StepsRun)
	}
}

func TestResumeValidationErrors(t *testing.T) {
	// Missing path.
	if _, err := New(resumeOpts(WithResume(filepath.Join(t.TempDir(), "nope.ckpt")))...); err == nil {
		t.Fatal("resume from a missing file must error")
	}
	// Mismatched configuration: snapshot from seed 11, session at seed 12.
	path := filepath.Join(t.TempDir(), "seed11.ckpt")
	a, err := New(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	_, err = New(resumeOpts(WithSeed(12), WithResume(path))...)
	if err == nil || !strings.Contains(err.Error(), "configuration does not match") {
		t.Fatalf("mismatched-config resume = %v, want configuration error", err)
	}
	// Unknown component.
	snap, err := checkpoint.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Components["mystery"] = checkpoint.Component{}
	if err := checkpoint.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	_, err = New(resumeOpts(WithResume(path))...)
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("unknown-component resume = %v, want error naming it", err)
	}
	// Session-level fingerprint: a resume that would rebuild a different
	// run length or LR schedule must be rejected (both silently fork the
	// trajectory; the engine fingerprint cannot see them).
	path2 := filepath.Join(t.TempDir(), "loop.ckpt")
	if err := a.Snapshot(path2); err != nil {
		t.Fatal(err)
	}
	_, err = New(resumeOpts(WithEpochs(5), WithResume(path2))...)
	if err == nil || !strings.Contains(err.Error(), "epochs") {
		t.Fatalf("epochs-mismatch resume = %v, want epochs error", err)
	}
	_, err = New(resumeOpts(WithLinearScaling(30, 1, PolynomialDecay), WithResume(path2))...)
	if err == nil || !strings.Contains(err.Error(), "LR schedule") {
		t.Fatalf("schedule-mismatch resume = %v, want LR schedule error", err)
	}
	_, err = New(resumeOpts(WithLinearScaling(20, 1, CosineDecay), WithResume(path2))...)
	if err == nil || !strings.Contains(err.Error(), "LR schedule") {
		t.Fatalf("decay-kind-mismatch resume = %v, want LR schedule error", err)
	}
	// Snapshot cadence without a directory.
	if _, err := New(resumeOpts(WithSnapshotEvery(2))...); err == nil || !strings.Contains(err.Error(), "WithSnapshotDir") {
		t.Fatalf("snapshot-every without dir = %v, want WithSnapshotDir error", err)
	}
	// A model-only checkpoint is not a resumable snapshot.
	wpath := filepath.Join(t.TempDir(), "weights.ckpt")
	if err := a.SaveCheckpoint(wpath); err != nil {
		t.Fatal(err)
	}
	_, err = New(resumeOpts(WithResume(wpath))...)
	if err == nil || !strings.Contains(err.Error(), `no "engine" component (has [model])`) {
		t.Fatalf("resume from model-only checkpoint = %v, want missing-engine error", err)
	}
}

func TestKeepLastBoundsSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	sess, err := New(resumeOpts(
		WithSnapshotDir(dir),
		WithSnapshotEvery(1),
		WithKeepLast(2),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if res.CheckpointsSaved < 3 {
		t.Fatalf("only %d snapshots written; cadence broken", res.CheckpointsSaved)
	}
	paths, err := checkpoint.ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("kept %d snapshots, want 2: %v", len(paths), paths)
	}
}
