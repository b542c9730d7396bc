package nn

import (
	"math/rand"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// assertBitIdentical fails unless got and want match exactly — the inference
// split's contract is bit-for-bit parity with the eval-mode tape forward,
// not approximate agreement.
func assertBitIdentical(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("shape mismatch: got %v want %v", got.Shape(), want.Shape())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("element %d differs: infer %v, eval-mode forward %v", i, g[i], w[i])
		}
	}
}

// policies exercises both halves of the mixed-precision seam.
var policies = map[string]bf16.Policy{"fp32": bf16.FP32Policy, "bf16": bf16.DefaultPolicy}

func TestInferMatchesEvalForwardPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 3, 6, 8, 8)

	bn := NewBatchNorm("bn", 6)
	// Non-trivial running statistics: a fresh BN is mean 0 / var 1, which
	// would let a batch-stats bug slip through the parity check.
	for i := range bn.RunningMean.Data() {
		bn.RunningMean.Data()[i] = float32(i)*0.3 - 0.7
		bn.RunningVar.Data()[i] = 0.5 + float32(i)*0.21
	}
	bn.Gamma.Value.T.Data()[2] = 1.7
	bn.Beta.Value.T.Data()[4] = -0.4

	type layer interface {
		Layer
		Inferer
	}
	layers := map[string]layer{
		"conv":      NewConv2D(rng, "c", 6, 4, 3, 2),
		"depthwise": NewDepthwiseConv2D(rng, "dw", 6, 3, 1),
		"batchnorm": bn,
		"se":        NewSqueezeExcite(rng, "se", 6, 2),
		"dropout":   &Dropout{Rate: 0.5},
		"droppath":  &DropPath{Rate: 0.5},
	}
	for pname, pol := range policies {
		ctx := &Ctx{Precision: pol}
		for lname, l := range layers {
			want := l.Forward(ctx, autograd.Constant(x)).T
			got := l.Infer(pol, x)
			t.Run(pname+"/"+lname, func(t *testing.T) { assertBitIdentical(t, got, want) })
			// The in-place forms run the same kernels over a tensor the
			// caller owns.
			own := x.Clone()
			switch l := l.(type) {
			case *BatchNorm:
				l.InferInPlace(own)
			case *SqueezeExcite:
				l.InferInPlace(pol, own)
			default:
				continue
			}
			t.Run(pname+"/"+lname+"/inplace", func(t *testing.T) { assertBitIdentical(t, own, want) })
		}
	}
}

func TestInferMatchesEvalForwardDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, "fc", 10, 5)
	x := tensor.Randn(rng, 1, 4, 10)
	want := d.Forward(EvalCtx(), autograd.Constant(x)).T
	assertBitIdentical(t, d.Infer(bf16.FP32Policy, x), want)
}

func TestSequentialInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := &Sequential{Layers: []Layer{
		NewConv2D(rng, "c", 3, 4, 3, 1),
		NewBatchNorm("bn", 4),
		SwishLayer(),
		&Dropout{Rate: 0.3},
	}}
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	for pname, pol := range policies {
		t.Run(pname, func(t *testing.T) {
			want := seq.Forward(&Ctx{Precision: pol}, autograd.Constant(x)).T
			assertBitIdentical(t, seq.Infer(pol, x), want)
		})
	}
}

func TestActivationInferWithoutTensorFormPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Activation with nil TF on the inference path")
		}
	}()
	a := &Activation{Name: "mystery", F: autograd.ReLU}
	a.Infer(bf16.FP32Policy, tensor.Ones(2, 2))
}

func TestSwishReLUSigmoidTensorMatchTape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.Randn(rng, 2, 64)
	assertBitIdentical(t, SwishTensor(x), autograd.Swish(autograd.Constant(x)).T)
	own := x.Clone()
	SwishInPlace(own)
	assertBitIdentical(t, own, SwishTensor(x))
	assertBitIdentical(t, ReLUTensor(x), autograd.ReLU(autograd.Constant(x)).T)
	assertBitIdentical(t, SigmoidTensor(x), autograd.Sigmoid(autograd.Constant(x)).T)
}
