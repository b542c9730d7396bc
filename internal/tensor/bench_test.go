package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			x := Randn(rng, 1, n, n)
			y := Randn(rng, 1, n, n)
			b.SetBytes(int64(3 * n * n * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "64x64"
	case 256:
		return "256x256"
	}
	return "n"
}

func BenchmarkConv2DForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 4, 16, 16, 16)
	w := Randn(rng, 0.2, 32, 16, 3, 3)
	spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Conv2D(x, w, spec)
		}
	})
	b.Run("backward", func(b *testing.B) {
		dy := Randn(rng, 1, spec.OutShape(x, w)...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Conv2DBackward(x, w, dy, spec)
		}
	})
}

func BenchmarkDepthwiseForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 4, 32, 16, 16)
	w := Randn(rng, 0.2, 32, 1, 3, 3)
	spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DepthwiseConv2D(x, w, spec)
		}
	})
	b.Run("backward", func(b *testing.B) {
		dy := Randn(rng, 1, spec.OutShape(x, &Tensor{shape: []int{32, 32, 3, 3}})...)
		// Correct dy shape from the real forward.
		dy = Randn(rng, 1, DepthwiseConv2D(x, w, spec).Shape()...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			DepthwiseConv2DBackward(x, w, dy, spec)
		}
	})
}

func BenchmarkElementwiseAdd1M(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, 1<<20)
	y := Randn(rng, 1, 1<<20)
	b.SetBytes(3 << 22)
	for i := 0; i < b.N; i++ {
		Add(x, y)
	}
}

// BenchmarkConv measures the steady-state conv kernels through the Into
// variants with a warm scratch pool — the configuration the training loop
// runs in. ReportAllocs proves the allocs/op = 0 contract that the
// bench-regression guard enforces. The first five cases are N = 4 over 16×16
// maps; the rest are pico's own layers at batch 32, whose 1×1, 2×2 and 8×8
// maps are where weight packing and border handling dominate.
func BenchmarkConv(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sc := NewScratch()
	for _, c := range []struct {
		name             string
		n, cin, hw, cout int // cout 0 = depthwise
		k, stride        int
		backward         bool
	}{
		{"forward3x3", 4, 16, 16, 32, 3, 1, false},
		{"forward1x1", 4, 32, 16, 64, 1, 1, false},
		{"backward3x3", 4, 16, 16, 32, 3, 1, true},
		{"backward1x1", 4, 32, 16, 64, 1, 1, true},
		{"depthwise", 4, 32, 16, 0, 3, 1, false},
		{"forward1x1_hw1", 32, 24, 1, 144, 1, 1, false},
		{"forward1x1_hw4", 32, 12, 2, 72, 1, 1, false},
		{"backward1x1_hw1", 32, 24, 1, 144, 1, 1, true},
		{"depthwise5x5s2", 32, 24, 8, 0, 5, 2, false},
		{"depthwiseTiny", 32, 72, 2, 0, 5, 1, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride, PadH: SamePad(c.k), PadW: SamePad(c.k)}
			x := Randn(rng, 1, c.n, c.cin, c.hw, c.hw)
			var run func()
			if c.cout == 0 {
				w := Randn(rng, 0.2, c.cin, 1, c.k, c.k)
				dst := New(DepthwiseConv2D(x, w, spec).Shape()...)
				run = func() { DepthwiseConv2DInto(dst, x, w, spec) }
			} else {
				w := Randn(rng, 0.2, c.cout, c.cin, c.k, c.k)
				dst := New(spec.OutShape(x, w)...)
				run = func() { Conv2DInto(dst, x, w, spec, sc) }
				if c.backward {
					dy := Randn(rng, 1, dst.Shape()...)
					dx, dw := New(x.Shape()...), New(w.Shape()...)
					run = func() { Conv2DBackwardInto(dx, dw, x, w, dy, spec, sc) }
				}
			}
			run() // warm the pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkElementwise measures the element-wise kernels over the pico
// model's largest activation at batch 32 ([32,24,16,16], what the repo
// benchmark's autograd.swish_fwd_us and nn.batchnorm_fwd_us probes time),
// the batch-norm ones row by row as the layers call them. ns/elem is the
// figure the README table quotes; allocs/op must stay 0.
func BenchmarkElementwise(b *testing.B) {
	const rows, hw = 32 * 24, 16 * 16
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 2, rows*hw).Data()
	dy := Randn(rng, 1, rows*hw).Data()
	sig, out, xhat := make([]float32, rows*hw), make([]float32, rows*hw), make([]float32, rows*hw)
	SwishInto(out, sig, x)
	BNNormalizeInto(out, xhat, x, 0.1, 0.5, 1.5, -0.2)
	for _, c := range []struct {
		name string
		row  func(lo, hi int) // one batch-norm row, or the whole tensor at once
		rows int
	}{
		{"swishForward", func(lo, hi int) { SwishInto(out, sig, x) }, 1},
		{"swishInfer", func(lo, hi int) { SwishInto(out, nil, x) }, 1},
		{"swishBackward", func(lo, hi int) { SwishBackwardInto(out, dy, sig, x) }, 1},
		{"sigmoid", func(lo, hi int) { SigmoidInto(out, x) }, 1},
		{"bnNormalize", func(lo, hi int) { BNNormalizeInto(out[lo:hi], xhat[lo:hi], x[lo:hi], 0.1, 0.5, 1.5, -0.2) }, rows},
		{"bnInfer", func(lo, hi int) { BNInferInto(out[lo:hi], x[lo:hi], 0.1, 0.5, 1.5, -0.2) }, rows},
		{"bnBackward", func(lo, hi int) { BNBackwardInto(out[lo:hi], dy[lo:hi], xhat[lo:hi], 0.75, 0.01, -0.02) }, rows},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(4 * rows * hw)
			for i := 0; i < b.N; i++ {
				for r := 0; r < c.rows; r++ {
					c.row(r*hw, (r+1)*hw)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*hw), "ns/elem")
		})
	}
}
