package autograd

import (
	"math"
	"math/rand"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// gradCheck verifies the analytic gradient of loss() with respect to each
// parameter tensor using central finite differences.
func gradCheck(t *testing.T, name string, params []*Value, loss func() *Value, tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	l := loss()
	l.Backward()
	analytic := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if p.Grad == nil {
			t.Fatalf("%s: param %d has nil grad", name, i)
		}
		analytic[i] = p.Grad.Clone()
	}
	const eps = 1e-2
	for pi, p := range params {
		for i := range p.T.Data() {
			orig := p.T.Data()[i]
			p.T.Data()[i] = orig + eps
			plus := float64(loss().T.Data()[0])
			p.T.Data()[i] = orig - eps
			minus := float64(loss().T.Data()[0])
			p.T.Data()[i] = orig
			numeric := (plus - minus) / (2 * eps)
			a := float64(analytic[pi].Data()[i])
			if math.Abs(a-numeric) > tol*(1+math.Abs(a)+math.Abs(numeric)) {
				t.Fatalf("%s param %d grad[%d]: analytic %v vs numeric %v", name, pi, i, a, numeric)
			}
		}
	}
}

func TestAddMulScaleGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	at := tensor.Randn(rng, 1, 3, 4)
	bt := tensor.Randn(rng, 1, 3, 4)
	a, b := Leaf(at, true), Leaf(bt, true)
	gradCheck(t, "add-mul-scale", []*Value{a, b}, func() *Value {
		return Mean(Scale(Mul(Add(a, b), Sub(a, b)), 0.5))
	}, 1e-3)
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Leaf(tensor.Randn(rng, 1, 3, 4), true)
	b := Leaf(tensor.Randn(rng, 1, 4, 2), true)
	gradCheck(t, "matmul", []*Value{a, b}, func() *Value {
		return Mean(MatMul(a, b))
	}, 1e-3)
}

func TestActivationGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		f    func(*Value) *Value
	}{
		{"sigmoid", Sigmoid},
		{"swish", Swish},
	} {
		x := Leaf(tensor.Randn(rng, 1, 2, 5), true)
		gradCheck(t, tc.name, []*Value{x}, func() *Value {
			return Mean(tc.f(x))
		}, 2e-3)
	}
}

func TestConv2DGradViaTape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Leaf(tensor.Randn(rng, 1, 1, 2, 5, 5), true)
	w := Leaf(tensor.Randn(rng, 0.5, 3, 2, 3, 3), true)
	spec := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	gradCheck(t, "conv2d", []*Value{x, w}, func() *Value {
		return Mean(Conv2D(x, w, spec, bf16.FP32Policy, nil))
	}, 2e-3)
}

func TestDepthwiseConvGradViaTape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := Leaf(tensor.Randn(rng, 1, 1, 3, 5, 5), true)
	w := Leaf(tensor.Randn(rng, 0.5, 3, 1, 3, 3), true)
	spec := tensor.ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	gradCheck(t, "dwconv", []*Value{x, w}, func() *Value {
		return Mean(DepthwiseConv2D(x, w, spec, bf16.FP32Policy, nil))
	}, 2e-3)
}

func TestChannelOpsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Leaf(tensor.Randn(rng, 1, 2, 3, 2, 2), true)
	b := Leaf(tensor.Randn(rng, 1, 3), true)
	s := Leaf(tensor.Randn(rng, 1, 2, 3), true)
	gradCheck(t, "addchannel+mulnc+gap", []*Value{x, b, s}, func() *Value {
		y := AddChannel(x, b)
		y = MulChannelNC(y, s)
		return Mean(GlobalAvgPool(y))
	}, 2e-3)
}

func TestAddRowBiasGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Leaf(tensor.Randn(rng, 1, 4, 3), true)
	b := Leaf(tensor.Randn(rng, 1, 3), true)
	gradCheck(t, "addrowbias", []*Value{x, b}, func() *Value {
		return Mean(Swish(AddRowBias(x, b)))
	}, 2e-3)
}

func TestSoftmaxCrossEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := Leaf(tensor.Randn(rng, 1, 4, 5), true)
	labels := []int{0, 2, 4, 1}
	for _, smoothing := range []float32{0, 0.1} {
		gradCheck(t, "softmax_ce", []*Value{logits}, func() *Value {
			return SoftmaxCrossEntropy(logits, labels, smoothing)
		}, 2e-3)
	}
}

func TestSoftmaxCrossEntropyValue(t *testing.T) {
	// Uniform logits over K classes must give loss = log(K) at smoothing 0.
	k := 8
	logits := Leaf(tensor.New(2, k), false)
	// requiresGrad=false leaf: loss should not require grad either.
	l := SoftmaxCrossEntropy(logits, []int{3, 5}, 0)
	want := math.Log(float64(k))
	if got := float64(l.T.Data()[0]); math.Abs(got-want) > 1e-5 {
		t.Fatalf("uniform CE = %v, want log(%d) = %v", got, k, want)
	}
	if l.RequiresGrad() {
		t.Fatal("loss of non-grad leaf must not require grad")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar must panic")
		}
	}()
	v := Leaf(tensor.New(2, 2), true)
	Add(v, v).Backward()
}

func TestDiamondGraphAccumulates(t *testing.T) {
	// y = x*x + x*x: gradient must be 4x, exercising multi-consumer
	// accumulation ordering in the tape.
	x := Leaf(tensor.FromSlice([]float32{3}, 1), true)
	a := Mul(x, x)
	b := Mul(x, x)
	y := Add(a, b)
	Sum(y).Backward()
	if got := x.Grad.Data()[0]; got != 12 {
		t.Fatalf("diamond grad = %v, want 12", got)
	}
}

func TestReusedNodeGrad(t *testing.T) {
	// z = (x + x) * x = 2x^2, dz/dx = 4x.
	x := Leaf(tensor.FromSlice([]float32{2}, 1), true)
	z := Mul(Add(x, x), x)
	Sum(z).Backward()
	if got := x.Grad.Data()[0]; got != 8 {
		t.Fatalf("reused-node grad = %v, want 8", got)
	}
}

func TestZeroGradAndReuse(t *testing.T) {
	x := Leaf(tensor.FromSlice([]float32{1}, 1), true)
	Sum(Scale(x, 3)).Backward()
	if x.Grad.Data()[0] != 3 {
		t.Fatalf("first backward grad = %v", x.Grad.Data()[0])
	}
	x.ZeroGrad()
	Sum(Scale(x, 5)).Backward()
	if x.Grad.Data()[0] != 5 {
		t.Fatalf("after ZeroGrad, grad = %v, want 5", x.Grad.Data()[0])
	}
}

func TestConstantBlocksGradient(t *testing.T) {
	x := Constant(tensor.FromSlice([]float32{2}, 1))
	y := Leaf(tensor.FromSlice([]float32{3}, 1), true)
	z := Mul(x, y)
	Sum(z).Backward()
	if x.Grad != nil {
		t.Fatal("constant must not accumulate gradient")
	}
	if y.Grad.Data()[0] != 2 {
		t.Fatalf("y grad = %v, want 2", y.Grad.Data()[0])
	}
}

func TestBF16PolicyChangesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := Leaf(tensor.Randn(rng, 1, 1, 2, 4, 4), false)
	w := Leaf(tensor.Randn(rng, 1, 2, 2, 3, 3), false)
	spec := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	fp32 := Conv2D(x, w, spec, bf16.FP32Policy, nil)
	mixed := Conv2D(x, w, spec, bf16.DefaultPolicy, nil)
	// Outputs must be close (bf16 has ~2^-8 relative error) but generally
	// not bit-identical.
	var differs bool
	for i := range fp32.T.Data() {
		a, b := float64(fp32.T.Data()[i]), float64(mixed.T.Data()[i])
		if math.Abs(a-b) > 0.15*(1+math.Abs(a)) {
			t.Fatalf("bf16 conv diverged at %d: %v vs %v", i, a, b)
		}
		if a != b {
			differs = true
		}
	}
	if !differs {
		t.Fatal("bf16 policy had no effect on conv output")
	}
}

func TestArgmax(t *testing.T) {
	logits := tensor.FromSlice([]float32{0.1, 0.9, 0.2, 3, -1, 0.5}, 2, 3)
	got := Argmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}
