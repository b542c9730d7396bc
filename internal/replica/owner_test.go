package replica

import (
	"math/rand"
	"strings"
	"testing"

	"effnetscale/internal/schedule"
)

// minMaxRun is the brute-force optimum ownership must reach: the smallest
// possible largest run over every cut of sizes into d contiguous runs.
func minMaxRun(sizes []int, d int) int {
	if d == 1 || len(sizes) == 0 {
		total := 0
		for _, n := range sizes {
			total += n
		}
		return total
	}
	best, run := minMaxRun(sizes, d-1), 0
	for i, n := range sizes {
		run += n
		best = min(best, max(run, minMaxRun(sizes[i+1:], d-1)))
	}
	return best
}

func TestOwnerRunsPartitionParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		sizes := make([]int, 1+rng.Intn(9))
		var spans [][2]int
		total, largest := 0, 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(1000)
			spans = append(spans, [2]int{total, total + sizes[i]})
			total += sizes[i]
			largest = max(largest, sizes[i])
		}
		d := 1 + rng.Intn(len(sizes)+3)
		cuts, bounds := ownership(spans, d)
		if len(cuts) != d+1 || cuts[0] != 0 || cuts[d] != len(sizes) {
			t.Fatalf("sizes %v d %d: cuts %v do not run from 0 to %d", sizes, d, cuts, len(sizes))
		}
		worst, empty := 0, 0
		for k := 0; k < d; k++ {
			if cuts[k+1] < cuts[k] {
				t.Fatalf("sizes %v d %d: cuts %v descend, so a parameter has two owners", sizes, d, cuts)
			}
			run := 0
			for _, n := range sizes[cuts[k]:cuts[k+1]] {
				run += n
			}
			if bounds[k+1]-bounds[k] != run {
				t.Fatalf("sizes %v d %d: rank %d owns floats %d..%d, its parameters hold %d", sizes, d, k, bounds[k], bounds[k+1], run)
			}
			if run == 0 {
				empty++
			}
			worst = max(worst, run)
		}
		if bound := (total+d-1)/d + largest; worst > bound {
			t.Fatalf("sizes %v d %d: largest run %d exceeds ⌈total/d⌉ + largest parameter = %d", sizes, d, worst, bound)
		}
		if opt := minMaxRun(sizes, d); worst != opt {
			t.Fatalf("sizes %v d %d: largest run %d, the best cut reaches %d", sizes, d, worst, opt)
		}
		if d > len(sizes) && empty < d-len(sizes) {
			t.Fatalf("sizes %v d %d: only %d ranks own nothing", sizes, d, empty)
		}
	}
}

// setOwnership overrides the engine's ownership before its first step.
func setOwnership(e *Engine, cuts []int) {
	bounds := cutOffsets(paramSpans(e.replicas[0].Model.Params()), cuts)
	for _, rep := range e.replicas {
		rep.owned = rep.Model.Params()[cuts[rep.dataRank]:cuts[rep.dataRank+1]]
		rep.ownBounds = bounds
	}
}

// ownedSlotNames returns the parameters rep's optimizer holds state for.
func ownedSlotNames(t *testing.T, rep *Replica) map[string]bool {
	t.Helper()
	c, err := rep.opt.CaptureState(rep.Model.Params())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for key := range c {
		if rest, ok := strings.CutPrefix(key, "slot/"); ok {
			names[rest[:strings.LastIndex(rest, "/")]] = true
		}
	}
	return names
}

// checkSlotsOnOwners fails unless every rank's optimizer holds state for
// exactly the parameters it owns.
func checkSlotsOnOwners(t *testing.T, e *Engine) {
	t.Helper()
	for _, rep := range e.replicas {
		got := ownedSlotNames(t, rep)
		if len(got) != len(rep.owned) {
			t.Fatalf("rank %d holds slots for %d parameters, owns %d", rep.Rank, len(got), len(rep.owned))
		}
		for _, p := range rep.owned {
			if !got[p.Name] {
				t.Fatalf("rank %d owns %s but holds no slot for it", rep.Rank, p.Name)
			}
		}
	}
}

func TestShardedUpdateAnyPartitionSameBits(t *testing.T) {
	// The partition decides only who computes an update, never its bits:
	// one rank owning everything while three own nothing (and still join
	// the refresh) trains the same trajectory as the balanced cut, LARS's
	// per-layer trust ratios included.
	cfg := miniEngineConfig(4, 2, 2)
	cfg.OptimizerName = "lars"
	cfg.Schedule = schedule.Constant(5)
	balanced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer balanced.Close()
	skewed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer skewed.Close()
	n := len(skewed.replicas[0].Model.Params())
	setOwnership(skewed, []int{0, 0, 0, n, n})
	for s := 0; s < 3; s++ {
		if a, b := mustStep(t, balanced), mustStep(t, skewed); a.Loss != b.Loss {
			t.Fatalf("step %d: balanced loss %v, skewed loss %v", s, a.Loss, b.Loss)
		}
	}
	if d := skewed.WeightsInSync(); d != "" {
		t.Fatalf("skewed ownership left replicas out of sync at %s", d)
	}
	checkSlotsOnOwners(t, skewed)
	a, err := balanced.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := skewed.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSnapshots(a, b); d != "" {
		t.Fatalf("balanced and skewed ownership diverged at %s", d)
	}
}

func TestShardedSlotsLiveOnOwners(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rmsprop/world3", miniEngineConfig(3, 2, 1)},
		{"lars/world3", miniEngineConfig(3, 2, 1)},
		{"rmsprop/mesh2x2", meshEngineConfig(2, 2, 2, 1)},
	} {
		tc.cfg.OptimizerName = tc.name[:strings.Index(tc.name, "/")]
		tc.cfg.Schedule = schedule.Constant(0.01)
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			mustStep(t, e)
		}
		checkSlotsOnOwners(t, e)
		// The snapshot merges every owner's slots: all parameters appear.
		snap, err := e.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		oc, err := snap.Component(optimComponent)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range e.replicas[0].Model.Params() {
			if _, ok := oc["slot/"+p.Name+"/0"]; !ok {
				t.Fatalf("%s: snapshot has no slot for %s", tc.name, p.Name)
			}
		}
		e.Close()
	}
}

func TestResumeShardedRMSPropWorld3(t *testing.T) {
	// Uneven ownership: a resumed engine keeps only its owned moment slots
	// and finishes bit for bit where the uninterrupted one does.
	cfg := miniEngineConfig(3, 2, 1)
	cfg.OptimizerName = "rmsprop"
	cfg.Schedule = schedule.Constant(0.01)
	const killAt, total = 3, 6
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	interrupted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < total; s++ {
		mustStep(t, ref)
		if s < killAt {
			mustStep(t, interrupted)
		}
	}
	snap, err := interrupted.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	interrupted.Close()
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	checkSlotsOnOwners(t, resumed)
	for s := killAt; s < total; s++ {
		mustStep(t, resumed)
	}
	a, err := ref.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSnapshots(a, b); d != "" {
		t.Fatalf("resumed state diverged from uninterrupted run at %s", d)
	}
}
