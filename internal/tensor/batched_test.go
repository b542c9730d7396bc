package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"effnetscale/internal/parallel"
)

// The references below are the kernels as they stood before convolutions
// worked at batch width: one GEMM per sample over a per-element
// bounds-tested im2col/col2im, and a depthwise loop that tests every tap.
// The batched GEMM, the row-form im2col/col2im and the clipped-window
// depthwise kernels must reproduce them bit for bit.

func assertSameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func refIm2col(col, xd []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	for c := 0; c < cin; c++ {
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*spec.StrideH-spec.PadH+i, ox*spec.StrideW-spec.PadW+j
						crow[oy*ow+ox] = 0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							crow[oy*ow+ox] = xd[c*h*w+iy*w+ix]
						}
					}
				}
			}
		}
	}
}

func refCol2im(dx, col []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	for c := 0; c < cin; c++ {
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*spec.StrideH-spec.PadH+i, ox*spec.StrideW-spec.PadW+j
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dx[c*h*w+iy*w+ix] += crow[oy*ow+ox]
						}
					}
				}
			}
		}
	}
}

// refConv is the per-sample convolution: forward output, input gradient and
// (samples in order) weight gradient.
func refConv(x, w, dy *Tensor, spec ConvSpec) (y, dx, dw *Tensor) {
	n, cin, h, wd := x.Dim4()
	cout, _, kh, kw := w.Dim4()
	_, _, oh, ow := dy.Dim4()
	ckk, ohw, chw := cin*kh*kw, oh*ow, cin*h*wd
	y, dx, dw = New(dy.Shape()...), New(x.Shape()...), New(w.Shape()...)
	col, dcol := make([]float32, ckk*ohw), make([]float32, ckk*ohw)
	for s := 0; s < n; s++ {
		dys := dy.data[s*cout*ohw : (s+1)*cout*ohw]
		refIm2col(col, x.data[s*chw:(s+1)*chw], cin, h, wd, kh, kw, oh, ow, spec)
		gemm(y.data[s*cout*ohw:(s+1)*cout*ohw], w.data, ckk, false, col, ohw, false, cout, ohw, ckk, false, nil, false)
		gemm(dw.data, dys, ohw, false, col, ohw, true, cout, ckk, ohw, true, nil, false)
		gemm(dcol, w.data, ckk, true, dys, ohw, false, ckk, ohw, cout, false, nil, false)
		refCol2im(dx.data[s*chw:(s+1)*chw], dcol, cin, h, wd, kh, kw, oh, ow, spec)
	}
	return y, dx, dw
}

// TestBatchedConvMatchesPerSample sweeps the batched GEMM over batch sizes,
// map sizes around the gemmNR tile width, channel counts ragged against
// gemmMR/gemmNR/gemmKC (k > gemmKC included), 1×1 and 3×3 kernels at stride
// 1 and 2, on both kernel paths and under two-worker chunking.
func TestBatchedConvMatchesPerSample(t *testing.T) {
	maps := [][2]int{{1, 1}, {1, 2}, {2, 2}, {3, 5}, {4, 4}, {1, 17}, {8, 8}, {16, 16}}
	defer parallel.SetMaxWorkers(parallel.MaxWorkers())
	runBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, workers := range []int{1, 2} {
			parallel.SetMaxWorkers(workers)
			for _, n := range []int{1, 2, 5, 32} {
				for _, m := range maps {
					for _, k := range []int{1, 3} {
						for _, stride := range []int{1, 2} {
							deep := 259 // cin that takes Cin·k·k past gemmKC
							if k == 3 {
								deep = 29
							}
							for _, ch := range [][2]int{{3, 5}, {18, 37}, {deep, 6}} {
								if cols := n * m[0] * m[1]; (cols > 512 && ch[0] > 3) || (cols > 128 && ch[0] > 18) {
									continue // wide folds with the small channels only: keeps -race quick
								}
								spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: SamePad(k), PadW: SamePad(k)}
								x := Randn(rng, 1, n, ch[0], (m[0]-1)*stride+1, (m[1]-1)*stride+1)
								w := Randn(rng, 1, ch[1], ch[0], k, k)
								dy := Randn(rng, 1, n, ch[1], m[0], m[1])
								name := fmt.Sprintf("workers=%d n=%d map=%v k=%d stride=%d ch=%v", workers, n, m, k, stride, ch)
								wantY, wantDx, wantDw := refConv(x, w, dy, spec)
								assertSameBits(t, name+" forward", Conv2D(x, w, spec).data, wantY.data)
								dx, dw := Conv2DBackward(x, w, dy, spec)
								assertSameBits(t, name+" dx", dx.data, wantDx.data)
								if workers == 1 || n == 1 {
									// Multi-worker dW merges per-chunk partials: a
									// different (documented) summation order.
									assertSameBits(t, name+" dw", dw.data, wantDw.data)
								}
							}
						}
					}
				}
			}
		}
	})
}

// refDepthwise is the naive checked quadruple loop, forward and backward.
func refDepthwise(x, w, dy *Tensor, spec ConvSpec) (y, dx, dw *Tensor) {
	n, c, h, wd := x.Dim4()
	_, _, kh, kw := w.Dim4()
	_, _, oh, ow := dy.Dim4()
	y, dx, dw = New(dy.Shape()...), New(x.Shape()...), New(w.Shape()...)
	// Backward runs channel-major like the kernel: dw[ch] sums over samples.
	for ch := 0; ch < c; ch++ {
		for s := 0; s < n; s++ {
			nc := s*c + ch
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					gv := dy.data[nc*oh*ow+oy*ow+ox]
					for i := 0; i < kh; i++ {
						for j := 0; j < kw; j++ {
							iy, ix := oy*spec.StrideH-spec.PadH+i, ox*spec.StrideW-spec.PadW+j
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							xi, wi := nc*h*wd+iy*wd+ix, ch*kh*kw+i*kw+j
							acc += x.data[xi] * w.data[wi]
							dx.data[xi] += gv * w.data[wi]
							dw.data[wi] += gv * x.data[xi]
						}
					}
					y.data[nc*oh*ow+oy*ow+ox] = acc
				}
			}
		}
	}
	return y, dx, dw
}

func checkDepthwiseClipped(t *testing.T, rng *rand.Rand, n, c, h, w, kh, kw int, spec ConvSpec) {
	t.Helper()
	oh, ow := outSize(h, kh, spec.StrideH, spec.PadH), outSize(w, kw, spec.StrideW, spec.PadW)
	x := Randn(rng, 1, n, c, h, w)
	wt := Randn(rng, 1, c, 1, kh, kw)
	dy := Randn(rng, 1, n, c, oh, ow)
	name := fmt.Sprintf("x=%v k=%dx%d spec=%+v", x.shape, kh, kw, spec)
	wantY, wantDx, wantDw := refDepthwise(x, wt, dy, spec)
	assertSameBits(t, name+" forward", DepthwiseConv2D(x, wt, spec).data, wantY.data)
	dx, dw := DepthwiseConv2DBackward(x, wt, dy, spec)
	assertSameBits(t, name+" dx", dx.data, wantDx.data)
	assertSameBits(t, name+" dw", dw.data, wantDw.data)
	dwOnly := Full(3, wt.shape...)
	DepthwiseConv2DBackwardInto(nil, dwOnly, x, wt, dy, spec)
	assertSameBits(t, name+" dw with nil dx", dwOnly.data, wantDw.data)
}

// TestDepthwiseClippedMatchesNaive covers every SAME-padded plane from 1×1 to
// 9×9 (planes smaller than the kernel included) for k in {1,3,5,7}.
func TestDepthwiseClippedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2} {
			for h := 1; h <= 9; h++ {
				for w := 1; w <= 9; w++ {
					spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: SamePad(k), PadW: SamePad(k)}
					checkDepthwiseClipped(t, rng, 2, 3, h, w, k, k, spec)
				}
			}
		}
	}
}

// FuzzDepthwiseClipped extends the sweep to arbitrary padding (windows that
// lie wholly in it included), even and rectangular kernels and rectangular
// strides.
func FuzzDepthwiseClipped(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(2), uint8(2), uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(4), uint8(0), uint8(0), uint8(18), int64(2)) // 2×2 plane, k5
	f.Add(uint8(8), uint8(2), uint8(4), uint8(2), uint8(1), uint8(0), uint8(3), int64(3))  // 5×3 kernel, pad > SAME
	f.Fuzz(func(t *testing.T, hRaw, wRaw, khRaw, kwRaw, sHRaw, sWRaw, padRaw uint8, seed int64) {
		h, w := 1+int(hRaw)%12, 1+int(wRaw)%12
		kh, kw := 1+int(khRaw)%7, 1+int(kwRaw)%7
		spec := ConvSpec{StrideH: 1 + int(sHRaw)%3, StrideW: 1 + int(sWRaw)%3}
		spec.PadH = int(padRaw) % (kh + 2)
		spec.PadW = int(padRaw/8) % (kw + 2)
		if outSize(h, kh, spec.StrideH, spec.PadH) <= 0 || outSize(w, kw, spec.StrideW, spec.PadW) <= 0 {
			t.Skip("empty output")
		}
		checkDepthwiseClipped(t, rand.New(rand.NewSource(seed)), 2, 2, h, w, kh, kw, spec)
	})
}

// TestConvKernelsAllocateNothingOnOneWorker: with a warm Scratch the conv
// kernels make no allocation at all on the single-worker path — neither a
// buffer nor a closure for a fan-out that will not happen (the 160-row head
// conv has two GEMM row blocks, the case that used to build one).
func TestConvKernelsAllocateNothingOnOneWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(47))
	sc := NewScratch()
	for _, c := range []struct{ cin, hw, cout, k, stride int }{
		{40, 1, 160, 1, 1}, {12, 2, 72, 1, 1}, {4, 16, 24, 1, 1}, {3, 32, 4, 3, 2}, {8, 9, 6, 1, 2},
	} {
		spec := ConvSpec{StrideH: c.stride, StrideW: c.stride, PadH: SamePad(c.k), PadW: SamePad(c.k)}
		x := Randn(rng, 1, 32, c.cin, c.hw, c.hw)
		w := Randn(rng, 1, c.cout, c.cin, c.k, c.k)
		y := New(spec.OutShape(x, w)...)
		dx, dw := New(x.Shape()...), New(w.Shape()...)
		run := func() {
			Conv2DInto(y, x, w, spec, sc)
			Conv2DBackwardInto(dx, dw, x, w, y, spec, sc)
		}
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Errorf("conv %+v: %v allocs per forward+backward, want 0", c, a)
		}
	}
	x := Randn(rng, 1, 32, 24, 8, 8)
	w := Randn(rng, 1, 24, 1, 5, 5)
	spec := ConvSpec{StrideH: 2, StrideW: 2, PadH: 2, PadW: 2}
	y := DepthwiseConv2D(x, w, spec)
	dx, dw := New(x.Shape()...), New(w.Shape()...)
	if a := testing.AllocsPerRun(20, func() {
		DepthwiseConv2DInto(y, x, w, spec)
		DepthwiseConv2DBackwardInto(dx, dw, x, w, y, spec)
	}); a != 0 {
		t.Errorf("depthwise: %v allocs per forward+backward, want 0", a)
	}
}
