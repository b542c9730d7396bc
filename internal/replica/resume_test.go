package replica

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/schedule"
)

// resumeEngineConfig is the adversarial resume configuration: world > 1 so
// per-rank RNG streams and the metric all-reduce are exercised, BN groups
// smaller than the world so BN running statistics genuinely differ across
// replicas, augmentation + dropout-free pico, gradient accumulation so the
// pipeline cursor moves in micro-steps, LARS slots, EMA shadow, and the
// default prefetching pipeline.
func resumeEngineConfig() Config {
	cfg := miniEngineConfig(4, 4, 2)
	cfg.OptimizerName = "lars"
	cfg.Schedule = schedule.Warmup{Epochs: 1, Inner: schedule.Constant(5)}
	cfg.NoAugment = false
	cfg.GradAccumSteps = 2
	cfg.EMADecay = 0.9
	cfg.BNMomentum = 0.9
	return cfg
}

// diffSnapshots returns a description of the first difference between two
// snapshots, or "" when they are bit-for-bit identical.
func diffSnapshots(a, b *checkpoint.Snapshot) string {
	if fmt.Sprint(a.Keys()) != fmt.Sprint(b.Keys()) {
		return fmt.Sprintf("components %v vs %v", a.Keys(), b.Keys())
	}
	for _, key := range a.Keys() {
		ca, cb := a.Components[key], b.Components[key]
		if fmt.Sprint(ca.Keys()) != fmt.Sprint(cb.Keys()) {
			return fmt.Sprintf("%s: blobs %v vs %v", key, ca.Keys(), cb.Keys())
		}
		for _, bk := range ca.Keys() {
			ba, bb := ca[bk], cb[bk]
			if ba.Str != bb.Str {
				return fmt.Sprintf("%s/%s: %q vs %q", key, bk, ba.Str, bb.Str)
			}
			for i := range ba.I64 {
				if ba.I64[i] != bb.I64[i] {
					return fmt.Sprintf("%s/%s: i64[%d] %d vs %d", key, bk, i, ba.I64[i], bb.I64[i])
				}
			}
			for i := range ba.F64 {
				if ba.F64[i] != bb.F64[i] {
					return fmt.Sprintf("%s/%s: f64[%d] %v vs %v", key, bk, i, ba.F64[i], bb.F64[i])
				}
			}
			if len(ba.F32) != len(bb.F32) {
				return fmt.Sprintf("%s/%s: f32 length %d vs %d", key, bk, len(ba.F32), len(bb.F32))
			}
			for i := range ba.F32 {
				if ba.F32[i] != bb.F32[i] {
					return fmt.Sprintf("%s/%s: f32[%d] %v vs %v", key, bk, i, ba.F32[i], bb.F32[i])
				}
			}
		}
	}
	return ""
}

// TestResumeBitForBit is the engine half of the repo's resume contract: an
// engine killed at an arbitrary (mid-epoch) step and restored from its
// snapshot must finish with state bit-for-bit identical to the uninterrupted
// engine — weights, BN statistics on every rank, optimizer slots, EMA
// shadow, RNG cursors. Comparison is via CaptureState itself, so everything
// a snapshot carries is covered.
func TestResumeBitForBit(t *testing.T) {
	const killAt, total = 5, 12 // stepsPerEpoch is 2 here: killAt is mid-epoch

	ref, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	interrupted, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := interrupted.StepsPerEpoch(); killAt%got == 0 {
		t.Fatalf("test setup: killAt %d is an epoch boundary (steps/epoch %d); pick a mid-epoch step", killAt, got)
	}
	var refEvals, resEvals []float64
	for s := 0; s < total; s++ {
		mustStep(t, ref)
		refEvals = append(refEvals, mustEval(t, ref, 8))
		if s < killAt {
			mustStep(t, interrupted)
			resEvals = append(resEvals, mustEval(t, interrupted, 8))
		}
	}
	snap, err := interrupted.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Close() // the "kill"

	// A fresh process: new engine from the same config, restored.
	resumed, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != killAt {
		t.Fatalf("restored step count %d, want %d", resumed.StepCount(), killAt)
	}
	for s := killAt; s < total; s++ {
		mustStep(t, resumed)
		resEvals = append(resEvals, mustEval(t, resumed, 8))
	}

	// Bit-for-bit identical eval trajectory...
	for i := range refEvals {
		if refEvals[i] != resEvals[i] {
			t.Fatalf("eval %d: resumed %v vs uninterrupted %v", i, resEvals[i], refEvals[i])
		}
	}
	// ...and bit-for-bit identical final state, including every per-rank
	// component.
	refSnap, err := ref.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	resSnap, err := resumed.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSnapshots(refSnap, resSnap); d != "" {
		t.Fatalf("resumed state diverged from uninterrupted run at %s", d)
	}
	if sync := resumed.WeightsInSync(); sync != "" {
		t.Fatalf("resumed replicas out of sync at %s", sync)
	}
}

// TestResumeAcrossPrefetchModes: prefetch depth is trajectory-neutral, so a
// snapshot from a depth-1 engine must restore into a depth-3 one and still
// match bit-for-bit.
func TestResumeAcrossPrefetchModes(t *testing.T) {
	cfgShallow := resumeEngineConfig()
	cfgShallow.PrefetchDepth = 1
	cfgDeep := resumeEngineConfig()
	cfgDeep.PrefetchDepth = 3

	a, err := New(cfgShallow)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for s := 0; s < 3; s++ {
		a.Step()
	}
	snap, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(cfgDeep)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for s := 3; s < 6; s++ {
		a.Step()
		b.Step()
	}
	sa, err := a.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSnapshots(sa, sb); d != "" {
		t.Fatalf("depth 1 and depth 3 diverged after shared restore at %s", d)
	}
}

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	e, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed = 99 },
		"optimizer": func(c *Config) { c.OptimizerName = "sgd" },
		"batch":     func(c *Config) { c.PerReplicaBatch = 2 },
		"bn-group":  func(c *Config) { c.BNGroupSize = 4 },
		"ema":       func(c *Config) { c.EMADecay = 0 },
		"augment":   func(c *Config) { c.NoAugment = true },
	} {
		cfg := resumeEngineConfig()
		mutate(&cfg)
		other, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err = other.RestoreState(snap)
		other.Close()
		if err == nil || !strings.Contains(err.Error(), "configuration does not match") {
			t.Fatalf("%s mismatch restore = %v, want configuration error", name, err)
		}
	}

	// A pure world change is the one mismatch with a remedy: the error must
	// name both worlds and point at elastic resharding.
	cfg := resumeEngineConfig()
	cfg.World = 2
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = other.RestoreState(snap)
	other.Close()
	if err == nil {
		t.Fatal("world-4 snapshot restored into world-2 engine")
	}
	for _, want := range []string{"world 4", "world 2", "elastic"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("world mismatch error %q does not mention %q", err, want)
		}
	}
}

func TestRestoreRejectsMissingComponent(t *testing.T) {
	e, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	delete(snap.Components, "replica/3")
	e2, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.RestoreState(snap); err == nil || !strings.Contains(err.Error(), "replica/3") {
		t.Fatalf("missing-replica restore = %v, want error naming replica/3", err)
	}
}

// TestRestoreRejectsBadModelCleanly: a model component the architecture does
// not accept is caught by the validation pass — the engine keeps its state,
// stays in sync and stays usable, rather than being half-overwritten and
// poisoned.
func TestRestoreRejectsBadModelCleanly(t *testing.T) {
	e, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	snap.Components["model"].PutF32("param/ghost.w", []int{2}, []float32{1, 2})

	e2, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	before, err := e2.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreState(snap); err == nil || !strings.Contains(err.Error(), "ghost.w") {
		t.Fatalf("surplus-parameter restore = %v, want error naming ghost.w", err)
	}
	after, err := e2.CaptureState()
	if err != nil {
		t.Fatalf("engine unusable after a rejected restore: %v", err)
	}
	if d := diffSnapshots(before, after); d != "" {
		t.Fatalf("rejected restore changed engine state at %s", d)
	}
	if d := e2.WeightsInSync(); d != "" {
		t.Fatalf("replicas out of sync after a rejected restore: %s", d)
	}
	e2.Step()
}

// TestSnapshotBytesDeterministic: equal training state encodes to equal
// bytes — two captures of one engine, and a write → read → write round trip —
// so snapshot files can be compared with cmp.
func TestSnapshotBytesDeterministic(t *testing.T) {
	e, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	encode := func(snap *checkpoint.Snapshot) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := checkpoint.WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	capture := func() []byte {
		t.Helper()
		snap, err := e.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		return encode(snap)
	}
	first := capture()
	if !bytes.Equal(first, capture()) {
		t.Fatal("two captures of the same engine state encoded to different bytes")
	}
	back, err := checkpoint.ReadSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, encode(back)) {
		t.Fatal("write -> read -> write is not a fixed point")
	}
}

func TestStateComponentsEnumerate(t *testing.T) {
	e, err := New(resumeEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	want := e.StateComponents()
	if len(snap.Components) != len(want) {
		t.Fatalf("snapshot has %d components, StateComponents lists %d", len(snap.Components), len(want))
	}
	for _, k := range want {
		if _, ok := snap.Components[k]; !ok {
			t.Fatalf("snapshot missing declared component %q", k)
		}
	}
}

// TestBNStatsDifferAcrossGroupsInSnapshot guards the reason replica state is
// per-rank at all: with BN groups smaller than the world, running statistics
// legitimately diverge across groups, and a weights-only restore would lose
// that.
func TestBNStatsDifferAcrossGroupsInSnapshot(t *testing.T) {
	e, err := New(resumeEngineConfig()) // world 4, BN group 2
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for s := 0; s < 2; s++ {
		e.Step()
	}
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := snap.Component("replica/0")
	r3, _ := snap.Component("replica/3")
	m0, err := r0.F32("bn/0/mean", nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := r3.F32("bn/0/mean", nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range m0 {
		if m0[i] != m3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("BN running means identical across different BN groups (suspicious test setup)")
	}
}
