package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"effnetscale/internal/parallel"
)

// TestPackedOperandsMatchPerCallPacking: a weight packed once (PackConv,
// PackDense) gives the bits of packing it on every call, for row counts past
// one gemmMC block and ragged against gemmMR, k past one gemmKC slab, output
// widths ragged against gemmNR, batches that fold and that fan out over two
// workers, on both kernel paths.
func TestPackedOperandsMatchPerCallPacking(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for _, workers := range []int{1, 2} {
			parallel.SetMaxWorkers(workers)
			for _, c := range []struct{ n, cin, hw, cout, k, stride int }{
				{1, 3, 8, 5, 3, 2}, {5, 29, 4, 133, 3, 1}, {2, 300, 1, 6, 1, 1}, {32, 12, 2, 72, 1, 1},
			} {
				spec := ConvSpec{StrideH: c.stride, StrideW: c.stride, PadH: SamePad(c.k), PadW: SamePad(c.k)}
				x := Randn(rng, 1, c.n, c.cin, c.hw, c.hw)
				w := Randn(rng, 1, c.cout, c.cin, c.k, c.k)
				want := Conv2D(x, w, spec)
				for _, buf := range [][]float32{make([]float32, PackedConvLen(w)), nil} {
					got := New(want.shape...)
					Conv2DPackedInto(got, x, PackConv(buf, w), spec, nil)
					assertSameBits(t, fmt.Sprintf("workers=%d conv %+v packed=%v", workers, c, buf != nil), got.data, want.data)
				}
			}
			for _, c := range []struct{ m, in, out int }{{1, 4, 1}, {5, 300, 37}, {32, 160, 133}} {
				a := Randn(rng, 1, c.m, c.in)
				w := Randn(rng, 1, c.in, c.out)
				for _, buf := range [][]float32{make([]float32, PackedDenseLen(w)), nil} {
					got := New(c.m, c.out)
					MatMulPackedInto(got, a, PackDense(buf, w))
					assertSameBits(t, fmt.Sprintf("workers=%d dense %+v packed=%v", workers, c, buf != nil), got.data, MatMul(a, w).data)
				}
			}
		}
	})
}
