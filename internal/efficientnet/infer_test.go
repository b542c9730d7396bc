package efficientnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/nn"
	"effnetscale/internal/parallel"
	"effnetscale/internal/tensor"
)

// policies exercises both halves of the mixed-precision seam.
var policies = map[string]bf16.Policy{"fp32": bf16.FP32Policy, "bf16": bf16.DefaultPolicy}

// perturbBN gives every BN layer non-trivial running statistics, so the
// parity tests cannot pass by accident on the fresh-init identity stats.
func perturbBN(rng *rand.Rand, bns []*nn.BatchNorm) {
	for _, bn := range bns {
		for i := range bn.RunningMean.Data() {
			bn.RunningMean.Data()[i] = float32(rng.NormFloat64() * 0.2)
			bn.RunningVar.Data()[i] = float32(0.5 + rng.Float64())
		}
	}
}

// newTestModel builds a pico model with perturbed BN running statistics.
func newTestModel(t testing.TB, classes int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cfg, ok := ConfigByName("pico", classes)
	if !ok {
		t.Fatal("pico config missing")
	}
	cfg.Resolution = 32
	m := New(rng, cfg)
	perturbBN(rng, m.BatchNorms())
	return m
}

// blockModels wraps one MBConv of each residual shape in a minimal model —
// stem, the block, head, classifier — so shapes the pico stages lack (a skip
// connection around an expansion conv) run through the whole frozen path.
func blockModels(rng *rand.Rand) map[string]*Model {
	out := map[string]*Model{}
	for name, args := range map[string]BlockArgs{
		"skip, no expand": {Kernel: 3, InFilters: 8, OutFilters: 8, ExpandRatio: 1, Stride: 1, SERatio: 0.25},
		"skip, expand":    {Kernel: 5, InFilters: 8, OutFilters: 8, ExpandRatio: 6, Stride: 1, SERatio: 0.25},
		"no skip":         {Kernel: 3, InFilters: 8, OutFilters: 12, ExpandRatio: 6, Stride: 2, SERatio: 0.25},
	} {
		blk := NewMBConv(rng, "b", args, 0.2)
		m := &Model{
			Config:   Config{Name: "block", NumClasses: 5, Resolution: 12},
			StemConv: nn.NewConv2D(rng, "stem", 3, blk.In, 3, 2),
			StemBN:   nn.NewBatchNorm("stem_bn", blk.In),
			Blocks:   []*MBConv{blk},
			HeadConv: nn.NewConv2D(rng, "head", blk.Out, 16, 1, 1),
			HeadBN:   nn.NewBatchNorm("head_bn", 16),
			Dropout:  &nn.Dropout{Rate: 0.2},
			FC:       nn.NewDense(rng, "fc", 16, 5),
		}
		perturbBN(rng, m.BatchNorms())
		out[name] = m
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data()[i], v)
		}
	}
}

func evalForward(m *Model, pol bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(&nn.Ctx{Precision: pol}, autograd.Constant(x)).T
}

func TestModelInferMatchesEvalForward(t *testing.T) {
	m := newTestModel(t, 7)
	rng := rand.New(rand.NewSource(12))
	x := tensor.Randn(rng, 1, 3, 3, 32, 32)
	for pname, pol := range policies {
		t.Run(pname, func(t *testing.T) {
			sameBits(t, "logits", m.Infer(pol, x), evalForward(m, pol, x))
		})
	}
}

// TestPlanMatchesEvalForward is the plan's contract: logits bit for bit the
// eval-mode tape forward's, for both precision policies, ragged and full
// batches, and blocks with and without a skip connection. One workspace
// serves every batch in a mixed order, so a buffer laid out for one batch and
// re-laid for the next cannot leak stale values into the logits.
func TestPlanMatchesEvalForward(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	models := blockModels(rng)
	models["pico"] = newTestModel(t, 7)
	for pname, pol := range policies {
		for mname, m := range models {
			t.Run(pname+"/"+mname, func(t *testing.T) {
				p := Freeze(m, pol)
				ws := NewWorkspace()
				res := m.Config.Resolution
				for _, n := range []int{17, 1, 32, 2, 5, 1} {
					x := tensor.Randn(rng, 1, n, 3, res, res)
					sameBits(t, fmt.Sprintf("batch %d", n), p.Infer(ws, x), evalForward(m, pol, x))
				}
			})
		}
	}
}

// TestPlanSharedAcrossWorkers exercises the serving contract: goroutines
// sharing one plan, each with its own workspace, neither race nor influence
// each other's results. Run under -race in CI.
func TestPlanSharedAcrossWorkers(t *testing.T) {
	m := newTestModel(t, 5)
	rng := rand.New(rand.NewSource(13))
	x := tensor.Randn(rng, 1, 2, 3, 32, 32)
	p := Freeze(m, bf16.FP32Policy)
	want := evalForward(m, bf16.FP32Policy, x)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for iter := 0; iter < 3; iter++ {
				got := p.Infer(ws, x)
				for i := range got.Data() {
					if got.Data()[i] != want.Data()[i] {
						errs <- "concurrent Infer diverged from the eval-mode forward"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestModelInferConcurrent: freeze-and-run from many goroutines on one model
// only reads it.
func TestModelInferConcurrent(t *testing.T) {
	m := newTestModel(t, 5)
	rng := rand.New(rand.NewSource(13))
	x := tensor.Randn(rng, 1, 2, 3, 32, 32)
	want := m.Infer(bf16.FP32Policy, x)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := m.Infer(bf16.FP32Policy, x)
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Error("concurrent Model.Infer diverged from the serial result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInferLeavesInputUntouched pins the rule the in-place steps live by: a
// pass overwrites only its workspace, never the caller's input, and never the
// residual input an MBConv adds back — with and without a skip connection or
// an expansion conv, with bf16 operand rounding on and off (rounding a block
// input in place would corrupt the residual it adds back).
func TestInferLeavesInputUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	models := blockModels(rng)
	models["model"] = newTestModel(t, 5)
	for pname, pol := range policies {
		for mname, m := range models {
			t.Run(pname+"/"+mname, func(t *testing.T) {
				res := m.Config.Resolution
				x := tensor.Randn(rng, 1, 3, 3, res, res)
				before := x.Clone()
				got := m.Infer(pol, x)
				sameBits(t, "input after Model.Infer", x, before)
				sameBits(t, "logits", got, evalForward(m, pol, x))
			})
		}
	}
}

// TestPlanWarmInferAllocatesOnlyLogits: on one worker, a warm Infer's only
// allocations are the logits it returns.
func TestPlanWarmInferAllocatesOnlyLogits(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	m := newTestModel(t, 7)
	rng := rand.New(rand.NewSource(16))
	for pname, pol := range policies {
		p := Freeze(m, pol)
		ws := NewWorkspace()
		for _, n := range []int{1, 32} {
			x := tensor.Randn(rng, 1, n, 3, 32, 32)
			p.Infer(ws, x)
			var sink *tensor.Tensor
			own := testing.AllocsPerRun(5, func() { sink = tensor.New(n, 7) })
			if got := testing.AllocsPerRun(5, func() { sink = p.Infer(ws, x) }); got > own {
				t.Errorf("%s batch %d: warm Infer made %v allocations, its logits alone make %v", pname, n, got, own)
			}
			_ = sink
		}
	}
}

// TestPlanWorkspaceReusesBuffers: the workspace is a few activations wide,
// not a whole forward's worth, because a buffer whose last reader has run
// hands its memory on.
func TestPlanWorkspaceReusesBuffers(t *testing.T) {
	m := newTestModel(t, 7)
	for pname, pol := range policies {
		p := Freeze(m, pol)
		largest, total := 0, 0
		for _, b := range p.bufs {
			f := b.c * max(b.h, 1) * max(b.w, 1)
			largest, total = max(largest, f), total+f
		}
		ws := &Workspace{} // not a recycled one, laid out for a larger batch
		const n = 8
		p.Infer(ws, tensor.New(n, 3, 32, 32))
		if len(ws.slab) > 4*n*largest {
			t.Errorf("%s: workspace holds %d floats, more than 4× the largest activation (%d at batch %d); %d without reuse",
				pname, len(ws.slab), n*largest, n, n*total)
		}
	}
}

// TestFreezeSeesWeightChange: a plan is a snapshot of the weights and
// statistics at Freeze — one frozen after a change computes with the new
// values, one frozen before keeps the old.
func TestFreezeSeesWeightChange(t *testing.T) {
	m := newTestModel(t, 7)
	rng := rand.New(rand.NewSource(17))
	x := tensor.Randn(rng, 1, 4, 3, 32, 32)
	for pname, pol := range policies {
		t.Run(pname, func(t *testing.T) {
			before := Freeze(m, pol)
			old := evalForward(m, pol, x)
			for _, p := range m.Params() {
				d := p.Data().Data()
				for i := range d {
					d[i] *= 1.0625
				}
			}
			perturbBN(rng, m.BatchNorms())
			sameBits(t, "plan frozen after the change", Freeze(m, pol).Infer(nil, x), evalForward(m, pol, x))
			sameBits(t, "plan frozen before the change", before.Infer(nil, x), old)
		})
	}
}

func benchmarkPlanInfer(b *testing.B, n int) {
	m := newTestModel(b, 32)
	p := Freeze(m, bf16.FP32Policy)
	ws := NewWorkspace()
	x := tensor.Randn(rand.New(rand.NewSource(1)), 1, n, 3, 32, 32)
	p.Infer(ws, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Infer(ws, x)
	}
}

// BenchmarkPlanInfer times a warm frozen pico forward at res 32, batch 1 (a
// lone request) and 32 (a full serving batch); the freeze-and-run arms time
// Model.Infer, which freezes on every call.
func BenchmarkPlanInfer(b *testing.B) {
	for _, n := range []int{1, 32} {
		b.Run(fmt.Sprintf("plan/b%d", n), func(b *testing.B) { benchmarkPlanInfer(b, n) })
		b.Run(fmt.Sprintf("freeze-and-run/b%d", n), func(b *testing.B) {
			m := newTestModel(b, 32)
			x := tensor.Randn(rand.New(rand.NewSource(1)), 1, n, 3, 32, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Infer(bf16.FP32Policy, x)
			}
		})
	}
}
