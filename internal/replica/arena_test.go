package replica

import (
	"math/rand"
	"runtime"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// bytesPerCall is the heap the process allocates per call of f, over n calls.
func bytesPerCall(n int, f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
}

// TestWarmStepAllocatesLittle holds the step arena to its purpose. Once the
// first step has sized the replicas' arenas, a training step allocates at
// most a tenth of the bytes that the same forward and backward allocate on
// the heap once per replica, which is what every step cost before the arena.
func TestWarmStepAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for _, world := range []int{1, 4} {
		cfg := miniEngineConfig(world, 4, 1)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			mustStep(t, e)
		}
		step := bytesPerCall(5, func() { mustStep(t, e) })
		e.Close()

		// The same model, batch and loss on the heap: a standalone copy, so
		// its gradients accumulate into leaves of its own.
		m := efficientnet.New(rand.New(rand.NewSource(cfg.Seed)), e.Replica(0).Model.Config)
		res := e.Replica(0).res
		x := tensor.Randn(rand.New(rand.NewSource(1)), 1, cfg.PerReplicaBatch, 3, res, res)
		labels := make([]int, cfg.PerReplicaBatch)
		ctx := &nn.Ctx{Training: true, Precision: cfg.Precision}
		fwdBwd := func() {
			autograd.SoftmaxCrossEntropy(m.Forward(ctx, autograd.Constant(x)), labels, 0).Backward()
		}
		fwdBwd()
		heap := bytesPerCall(3, fwdBwd)

		if limit := uint64(world) * heap / 10; step > limit {
			t.Errorf("world %d: a warm step allocated %d bytes; the limit is %d, a tenth of %d heap forward+backward passes of %d bytes",
				world, step, limit, world, heap)
		}
	}
}
