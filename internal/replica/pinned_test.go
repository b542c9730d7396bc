package replica

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/parallel"
	"effnetscale/internal/schedule"
)

// pinnedRuns fingerprints one short training run per optimizer at worlds 1,
// 3 and 4, plus one run with an EMA shadow and two on a 2×2 mesh. The world
// and EMA rows were recorded from the engine in which every rank applied the
// full optimizer update on its own copy of the weights; the sharded update
// must reproduce them bit for bit — losses, weights, every optimizer slot
// and the EMA shadow. The two mesh rows were recorded on the sharded engine.
var pinnedRuns = []struct {
	opt   string
	lr    float64
	world int
	ema   float64
	// shards, when > 1, lays the world out as a (world/shards)×shards mesh.
	shards int
	want   string
}{
	{"sgd", 0.05, 1, 0, 1, "e4776e6f5b836f7d"},
	{"sgd", 0.05, 3, 0, 1, "441dc88ec75f24a0"},
	{"sgd", 0.05, 4, 0, 1, "35a32b906f22670c"},
	{"rmsprop", 0.01, 1, 0, 1, "4b9c122ec13ad258"},
	{"rmsprop", 0.01, 3, 0, 1, "baa471e7e4877003"},
	{"rmsprop", 0.01, 4, 0, 1, "e8f40ffeb96a0d98"},
	{"lars", 5, 1, 0, 1, "2c2226e42ff13d88"},
	{"lars", 5, 3, 0, 1, "2a965b97be930c2d"},
	{"lars", 5, 4, 0, 1, "ae92d059f58d9750"},
	{"lars", 5, 3, 0.9, 1, "a42eaff69d2bdc1c"},
	{"lars", 5, 4, 0, 2, "abb39547d3011c7e"},
	{"rmsprop", 0.01, 4, 0, 2, "61b8ec77927bea7c"},
}

// pinnedFingerprint trains five steps and hashes every step's loss bits
// followed by the encoded snapshot of the final state.
func pinnedFingerprint(t *testing.T, opt string, lr float64, world int, ema float64, shards int) string {
	t.Helper()
	cfg := meshEngineConfig(world/shards, shards, 2, 1)
	cfg.OptimizerName = opt
	cfg.WeightDecay = 1e-4
	cfg.Schedule = schedule.Constant(lr)
	cfg.EMADecay = ema
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := sha256.New()
	var b [8]byte
	for s := 0; s < 5; s++ {
		res := mustStep(t, e)
		if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
			t.Fatalf("step %d: loss %v", s, res.Loss)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Loss))
		h.Write(b[:])
	}
	snap, err := e.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteSnapshot(h, snap); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPinnedTrajectories holds every optimizer's trajectory to its recorded
// fingerprint. Kernels split work by the worker bound, so the runs pin it to
// one; the recorded bits are the amd64 AVX2+FMA kernels'.
func TestPinnedTrajectories(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are recorded on the amd64 kernels")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	for _, c := range pinnedRuns {
		name := fmt.Sprintf("%s/world%d", c.opt, c.world)
		if c.ema > 0 {
			name += "/ema"
		}
		if c.shards > 1 {
			name += fmt.Sprintf("/mesh%dx%d", c.world/c.shards, c.shards)
		}
		t.Run(name, func(t *testing.T) {
			if got := pinnedFingerprint(t, c.opt, c.lr, c.world, c.ema, c.shards); got != c.want {
				t.Errorf("fingerprint %s, recorded %s", got, c.want)
			}
		})
	}
}
