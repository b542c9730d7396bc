package podsim

import "testing"

func TestOverlapDirectionAcrossModels(t *testing.T) {
	// B2 (more comm-bound) gains more from overlap than B5.
	b2, err := ModelStepGradReady("b2", 1024, 32768, 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	b5, err := ModelStepGradReady("b5", 1024, 32768, 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b2.SpeedupPct() <= b5.SpeedupPct() {
		t.Fatalf("B2 overlap speedup (%v%%) must exceed B5's (%v%%)", b2.SpeedupPct(), b5.SpeedupPct())
	}
}

func TestGradReadyTailIsOneBucket(t *testing.T) {
	const mib = 1 << 20
	small, err := ModelStepGradReady("b2", 1024, 32768, 0, mib)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ModelStepGradReady("b2", 1024, 32768, 0, 8*mib)
	if err != nil {
		t.Fatal(err)
	}
	exposed := func(o OverlapResult) float64 {
		return o.AllReduceSeconds * (1 - o.OverlapFraction)
	}
	// The exposed tail is one bucket's collective, so it shrinks with the
	// bucket size ...
	if exposed(small) >= exposed(big) {
		t.Fatalf("1 MiB tail %v must beat 8 MiB tail %v", exposed(small), exposed(big))
	}
	// ... while total busy time grows: more buckets, more α latency.
	if small.AllReduceSeconds <= big.AllReduceSeconds {
		t.Fatalf("1 MiB busy %v must exceed 8 MiB busy %v", small.AllReduceSeconds, big.AllReduceSeconds)
	}
	if small.OverlappedStepSeconds >= small.StepBreakdown.StepSeconds() {
		t.Fatal("overlap must shrink the step")
	}
	// Speedup is bounded by the all-reduce share itself.
	if s := small.SpeedupPct(); s <= 0 || s > small.AllReducePct() {
		t.Fatalf("speedup %v%% outside (0, %v%%]", s, small.AllReducePct())
	}
}

func TestGradReadyValidation(t *testing.T) {
	if _, err := ModelStepGradReady("bogus", 1024, 32768, 0, 1<<20); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := ModelStepGradReady("b2", 1024, 32768, 0, 0); err == nil {
		t.Fatal("zero bucket size must error")
	}
}
