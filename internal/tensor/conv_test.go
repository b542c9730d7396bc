package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"effnetscale/internal/parallel"
)

// TestConv2DAgainstNaive checks a fixed shape table against the shared
// float64 direct-convolution oracle (oracle_test.go); the both-kernel-path
// sweep lives in TestConv2DOracleSweep.
func TestConv2DAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		n, cin, h, w, cout, k int
		spec                  ConvSpec
	}{
		{1, 1, 5, 5, 1, 3, ConvSpec{1, 1, 1, 1}},
		{2, 3, 8, 8, 4, 3, ConvSpec{1, 1, 1, 1}},
		{2, 3, 9, 9, 5, 3, ConvSpec{2, 2, 1, 1}},
		{1, 2, 7, 7, 3, 5, ConvSpec{2, 2, 2, 2}},
		{3, 4, 6, 6, 2, 1, ConvSpec{1, 1, 0, 0}},
		{1, 2, 8, 8, 2, 1, ConvSpec{2, 2, 0, 0}},
	}
	for _, c := range cases {
		x := Randn(rng, 1, c.n, c.cin, c.h, c.w)
		w := Randn(rng, 1, c.cout, c.cin, c.k, c.k)
		got := Conv2D(x, w, c.spec)
		want, mag, k := oracleConv2D(x, w, c.spec)
		if got.Len() != len(want) {
			t.Fatalf("Conv2D case %+v: %d outputs, oracle has %d", c, got.Len(), len(want))
		}
		assertOracle(t, fmt.Sprintf("Conv2D case %+v", c), got.Data(), want, mag, k)
	}
}

// numericalGrad computes the central finite-difference gradient of
// f with respect to x, perturbing one element at a time.
func numericalGrad(x *Tensor, f func() float64, eps float32) *Tensor {
	g := New(x.Shape()...)
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		plus := f()
		x.Data()[i] = orig - eps
		minus := f()
		x.Data()[i] = orig
		g.Data()[i] = float32((plus - minus) / (2 * float64(eps)))
	}
	return g
}

func checkGrad(t *testing.T, name string, analytic, numeric *Tensor, tol float64) {
	t.Helper()
	for i := range analytic.Data() {
		a, n := float64(analytic.Data()[i]), float64(numeric.Data()[i])
		if math.Abs(a-n) > tol*(1+math.Abs(a)+math.Abs(n)) {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, a, n)
		}
	}
}

func TestConv2DBackwardGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, 2, 2, 5, 5)
	w := Randn(rng, 1, 3, 2, 3, 3)
	spec := ConvSpec{2, 2, 1, 1}
	// Loss = sum(conv(x, w) * fixed random weighting) to get nontrivial dy.
	weighting := Randn(rng, 1, spec.OutShape(x, w)...)
	loss := func() float64 {
		y := Conv2D(x, w, spec)
		return Dot(y, weighting)
	}
	dx, dw := Conv2DBackward(x, w, weighting, spec)
	checkGrad(t, "conv dx", dx, numericalGrad(x, loss, 1e-2), 2e-2)
	checkGrad(t, "conv dw", dw, numericalGrad(w, loss, 1e-2), 2e-2)
}

// TestDepthwiseConv2DAgainstNaive checks a fixed shape table against the
// shared float64 depthwise oracle; the both-kernel-path sweep lives in
// TestDepthwiseOracleSweep.
func TestDepthwiseConv2DAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		n, ch, h, w, k int
		spec           ConvSpec
	}{
		{1, 1, 5, 5, 3, ConvSpec{1, 1, 1, 1}},
		{2, 4, 8, 8, 3, ConvSpec{2, 2, 1, 1}},
		{1, 3, 7, 7, 5, ConvSpec{1, 1, 2, 2}},
	} {
		x := Randn(rng, 1, c.n, c.ch, c.h, c.w)
		w := Randn(rng, 1, c.ch, 1, c.k, c.k)
		got := DepthwiseConv2D(x, w, c.spec)
		want, mag, k := oracleDepthwise(x, w, c.spec)
		assertOracle(t, fmt.Sprintf("DepthwiseConv2D case %+v", c), got.Data(), want, mag, k)
	}
}

func TestDepthwiseBackwardGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 1, 2, 3, 6, 6)
	w := Randn(rng, 1, 3, 1, 3, 3)
	spec := ConvSpec{2, 2, 1, 1}
	weighting := Randn(rng, 1, spec.OutShape(x, &Tensor{shape: []int{3, 3, 3, 3}})[0], 3, 3, 3)
	// Build weighting with the true output shape instead.
	y := DepthwiseConv2D(x, w, spec)
	weighting = Randn(rng, 1, y.Shape()...)
	loss := func() float64 {
		return Dot(DepthwiseConv2D(x, w, spec), weighting)
	}
	dx, dw := DepthwiseConv2DBackward(x, w, weighting, spec)
	checkGrad(t, "dw dx", dx, numericalGrad(x, loss, 1e-2), 2e-2)
	checkGrad(t, "dw dw", dw, numericalGrad(w, loss, 1e-2), 2e-2)
}

func TestConvOutShape(t *testing.T) {
	x := New(2, 3, 32, 32)
	w := New(8, 3, 3, 3)
	spec := ConvSpec{StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	got := spec.OutShape(x, w)
	want := []int{2, 8, 16, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutShape = %v, want %v", got, want)
		}
	}
	if SamePad(3) != 1 || SamePad(5) != 2 || SamePad(1) != 0 {
		t.Fatal("SamePad wrong")
	}
}

// TestConvBackwardNilDxAndStaleOutputs covers the two halves of the backward
// kernels' output contract on every lowering (im2col, pointwise, strided
// pointwise, depthwise), single- and multi-worker: a nil dx skips the input
// gradient and leaves dw's bits unchanged, and the Into form overwrites
// whatever dx and dw held while the allocating form (which relies on fresh
// zeroed tensors) agrees with it bit for bit.
func TestConvBackwardNilDxAndStaleOutputs(t *testing.T) {
	bitsEqual := func(name string, got, want *Tensor) {
		t.Helper()
		for i := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got.Data()[i], want.Data()[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	for _, workers := range []int{1, 3} {
		parallel.SetMaxWorkers(workers)
		for _, c := range []struct {
			name      string
			cin, k    int
			spec      ConvSpec
			depthwise bool
		}{
			{"im2col 3x3 stride 2", 3, 3, ConvSpec{2, 2, 1, 1}, false},
			{"pointwise", 3, 1, ConvSpec{1, 1, 0, 0}, false},
			{"strided pointwise", 3, 1, ConvSpec{2, 2, 0, 0}, false},
			{"depthwise 3x3", 4, 3, ConvSpec{1, 1, 1, 1}, true},
		} {
			x := Randn(rng, 1, 4, c.cin, 7, 7)
			var w, y *Tensor
			backward := func(dx, dw, dy *Tensor) { Conv2DBackwardInto(dx, dw, x, w, dy, c.spec, nil) }
			alloc := func(dy *Tensor) (*Tensor, *Tensor) { return Conv2DBackward(x, w, dy, c.spec) }
			if c.depthwise {
				w = Randn(rng, 1, c.cin, 1, c.k, c.k)
				y = DepthwiseConv2D(x, w, c.spec)
				backward = func(dx, dw, dy *Tensor) { DepthwiseConv2DBackwardInto(dx, dw, x, w, dy, c.spec) }
				alloc = func(dy *Tensor) (*Tensor, *Tensor) { return DepthwiseConv2DBackward(x, w, dy, c.spec) }
			} else {
				w = Randn(rng, 1, 5, c.cin, c.k, c.k)
				y = Conv2D(x, w, c.spec)
			}
			dy := Randn(rng, 1, y.Shape()...)

			wantDx, wantDw := alloc(dy)
			dx, dw := Full(99, x.Shape()...), Full(-99, w.Shape()...) // stale contents
			backward(dx, dw, dy)
			bitsEqual(c.name+" dx over stale output", dx, wantDx)
			bitsEqual(c.name+" dw over stale output", dw, wantDw)

			dwOnly := Full(7, w.Shape()...)
			backward(nil, dwOnly, dy)
			bitsEqual(c.name+" dw with nil dx", dwOnly, wantDw)
		}
	}
}
