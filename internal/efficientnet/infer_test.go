package efficientnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// newTestModel builds a pico model with perturbed BN running statistics so
// the parity tests cannot pass by accident on the fresh-init identity stats.
func newTestModel(t testing.TB, classes int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cfg, ok := ConfigByName("pico", classes)
	if !ok {
		t.Fatal("pico config missing")
	}
	cfg.Resolution = 32
	m := New(rng, cfg)
	for _, bn := range m.BatchNorms() {
		for i := range bn.RunningMean.Data() {
			bn.RunningMean.Data()[i] = float32(rng.NormFloat64() * 0.2)
			bn.RunningVar.Data()[i] = float32(0.5 + rng.Float64())
		}
	}
	return m
}

func TestModelInferMatchesEvalForward(t *testing.T) {
	m := newTestModel(t, 7)
	rng := rand.New(rand.NewSource(12))
	x := tensor.Randn(rng, 1, 3, 3, 32, 32)
	for pname, pol := range map[string]bf16.Policy{"fp32": bf16.FP32Policy, "bf16": bf16.DefaultPolicy} {
		t.Run(pname, func(t *testing.T) {
			want := m.Forward(&nn.Ctx{Precision: pol}, autograd.Constant(x)).T
			got := m.Infer(pol, x)
			if !tensor.SameShape(got, want) {
				t.Fatalf("shape mismatch: got %v want %v", got.Shape(), want.Shape())
			}
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("logit %d differs: infer %v, eval-mode forward %v",
						i, got.Data()[i], want.Data()[i])
				}
			}
		})
	}
}

// TestModelInferConcurrent exercises the serving contract: many goroutines
// running Infer on one frozen model must neither race nor influence each
// other's results. Run under -race in CI.
func TestModelInferConcurrent(t *testing.T) {
	m := newTestModel(t, 5)
	rng := rand.New(rand.NewSource(13))
	x := tensor.Randn(rng, 1, 2, 3, 32, 32)
	want := m.Infer(bf16.FP32Policy, x)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				got := m.Infer(bf16.FP32Policy, x)
				for i := range got.Data() {
					if got.Data()[i] != want.Data()[i] {
						errs <- "concurrent Infer diverged from serial result"
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

// TestInferLeavesInputUntouched pins the rule the in-place epilogues live by:
// a pass overwrites only tensors it allocated, never the caller's input (a
// serve batch view, replica.Evaluate's images) and never the residual input
// an MBConv adds back — with and without a skip connection or an expansion
// conv, with bf16 operand rounding on and off. The outputs must still match
// the eval-mode tape forward bit for bit.
func TestInferLeavesInputUntouched(t *testing.T) {
	m := newTestModel(t, 5)
	rng := rand.New(rand.NewSource(14))
	blocks := map[string]*MBConv{
		"skip, no expand": NewMBConv(rng, "a", BlockArgs{Kernel: 3, InFilters: 8, OutFilters: 8, ExpandRatio: 1, Stride: 1, SERatio: 0.25}, 0),
		"skip, expand":    NewMBConv(rng, "b", BlockArgs{Kernel: 5, InFilters: 8, OutFilters: 8, ExpandRatio: 6, Stride: 1, SERatio: 0.25}, 0),
		"no skip":         NewMBConv(rng, "c", BlockArgs{Kernel: 3, InFilters: 8, OutFilters: 12, ExpandRatio: 6, Stride: 2, SERatio: 0.25}, 0),
	}
	sameBits := func(t *testing.T, what string, got, want *tensor.Tensor) {
		t.Helper()
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data()[i], v)
			}
		}
	}
	for pname, pol := range map[string]bf16.Policy{"fp32": bf16.FP32Policy, "bf16": bf16.DefaultPolicy} {
		t.Run(pname+"/model", func(t *testing.T) {
			x := tensor.Randn(rng, 1, 3, 3, 32, 32)
			before := x.Clone()
			got := m.Infer(pol, x)
			sameBits(t, "input after Model.Infer", x, before)
			sameBits(t, "logits", got, m.Forward(&nn.Ctx{Precision: pol}, autograd.Constant(x)).T)
		})
		for bname, b := range blocks {
			t.Run(pname+"/"+bname, func(t *testing.T) {
				if want := bname != "no skip"; b.HasSkip != want {
					t.Fatalf("HasSkip = %v, want %v", b.HasSkip, want)
				}
				x := tensor.Randn(rng, 1, 2, 8, 6, 6)
				before := x.Clone()
				got := b.Infer(pol, x)
				sameBits(t, "input after MBConv.Infer", x, before)
				sameBits(t, "output", got, b.Forward(&nn.Ctx{Precision: pol}, autograd.Constant(x)).T)
			})
		}
	}
}
