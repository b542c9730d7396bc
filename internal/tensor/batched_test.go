package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// assertSameBitsButNaN is assertSameBits under which any NaN equals any NaN
// (see sameBits).
func assertSameBitsButNaN(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
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

// x86NaN is the result r of one SSE/AVX float32 operation on a and b (a the
// first source) with its NaN chosen as the hardware chooses it: a's if a is
// NaN, else b's, quieted; the default NaN if the operation itself is
// invalid. Go code may get its operands swapped by the compiler, so only
// assembly has a NaN payload this pins.
func x86NaN(a, b, r float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 1<<22)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 1<<22)
	case r != r:
		return math.Float32frombits(0xFFC00000)
	}
	return r
}

// refDepthwiseX86 is refDepthwise's forward with every NaN pinned by x86NaN
// in the AVX2 kernel's operand order: input times weight, then accumulator
// plus product.
func refDepthwiseX86(x, w *Tensor, oh, ow int, spec ConvSpec) *Tensor {
	n, c, h, wd := x.Dim4()
	_, _, kh, kw := w.Dim4()
	y := New(n, c, oh, ow)
	for nc := 0; nc < n*c; nc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				for i := 0; i < kh; i++ {
					for j := 0; j < kw; j++ {
						iy, ix := oy*spec.StrideH-spec.PadH+i, ox*spec.StrideW-spec.PadW+j
						if iy < 0 || iy >= h || ix < 0 || ix >= wd {
							continue
						}
						xv, wv := x.data[nc*h*wd+iy*wd+ix], w.data[(nc%c)*kh*kw+i*kw+j]
						p := x86NaN(xv, wv, xv*wv)
						acc = x86NaN(acc, p, acc+p)
					}
				}
				y.data[nc*oh*ow+oy*ow+ox] = acc
			}
		}
	}
	return y
}

// checkDepthwiseClipped holds the depthwise kernels to refDepthwise bit for
// bit: the forward under both dispatches (eight channels per AVX2 register,
// and the Go twin), each from raw and from lane-packed weights, then dx and
// dw. fill, if not nil, draws the values of x and w; then the Go kernels may
// return any NaN for a NaN, while the AVX2 forward must also match the NaN
// payloads refDepthwiseX86 pins.
func checkDepthwiseClipped(t *testing.T, rng *rand.Rand, n, c, h, w, kh, kw int, spec ConvSpec, fill func() float32) {
	t.Helper()
	oh, ow := outSize(h, kh, spec.StrideH, spec.PadH), outSize(w, kw, spec.StrideW, spec.PadW)
	x := Randn(rng, 1, n, c, h, w)
	wt := Randn(rng, 1, c, 1, kh, kw)
	check := assertSameBits
	if fill != nil {
		check = assertSameBitsButNaN
		for _, d := range [][]float32{x.data, wt.data} {
			for i := range d {
				d[i] = fill()
			}
		}
	}
	dy := Randn(rng, 1, n, c, oh, ow)
	name := fmt.Sprintf("x=%v k=%dx%d spec=%+v", x.shape, kh, kw, spec)
	wantY, wantDx, wantDw := refDepthwise(x, wt, dy, spec)
	wantX86 := refDepthwiseX86(x, wt, oh, ow, spec)
	assertSameBitsButNaN(t, name+" x86 reference", wantX86.data, wantY.data)
	packed := PackDepthwise(make([]float32, PackedDepthwiseLen(wt)), wt)
	for _, avx := range []bool{false, true} {
		restore := forceAVX2(avx)
		fwd, want := check, wantY
		if useAVX2 {
			fwd, want = assertSameBits, wantX86
		}
		fwd(t, fmt.Sprintf("%s avx2=%v forward", name, useAVX2), DepthwiseConv2D(x, wt, spec).data, want.data)
		y := Full(3, wantY.shape...)
		DepthwiseConv2DPackedInto(y, x, packed, spec, nil)
		fwd(t, fmt.Sprintf("%s avx2=%v packed forward", name, useAVX2), y.data, want.data)
		restore()
	}
	dx, dw := DepthwiseConv2DBackward(x, wt, dy, spec)
	check(t, name+" dx", dx.data, wantDx.data)
	check(t, name+" dw", dw.data, wantDw.data)
	dwOnly := Full(3, wt.shape...)
	DepthwiseConv2DBackwardInto(nil, dwOnly, x, wt, dy, spec)
	check(t, name+" dw with nil dx", dwOnly.data, wantDw.data)
}

// TestDepthwiseClippedMatchesNaive covers every SAME-padded plane from 1×1 to
// 9×9 (planes smaller than the kernel included) for k in {1,3,5,7}, at
// channel counts that make no full lane block, one, and full blocks plus a
// tail.
func TestDepthwiseClippedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2} {
			for h := 1; h <= 9; h++ {
				for w := 1; w <= 9; w++ {
					spec := ConvSpec{StrideH: stride, StrideW: stride, PadH: SamePad(k), PadW: SamePad(k)}
					for _, c := range []int{1, 4, 8, 13, 24} {
						for _, n := range []int{1, 2} {
							checkDepthwiseClipped(t, rng, n, c, h, w, k, k, spec, nil)
						}
					}
				}
			}
		}
	}
	// Enough planes (n·C > 256, n·⌈C/8⌉ > 32 blocks) for both dispatches to
	// fan out over two workers.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	for _, k := range []int{3, 5} {
		spec := ConvSpec{StrideH: 2, StrideW: 2, PadH: SamePad(k), PadW: SamePad(k)}
		checkDepthwiseClipped(t, rng, 5, 60, 8, 8, k, k, spec, nil)
	}
}

// dwClasses are the special values FuzzDepthwiseClipped mixes into x and w,
// one bit of its class byte each.
var dwClasses = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	0x1p-140, -0x1p-127, // denormals
	0x1p100, // a product of two overflows
}

// FuzzDepthwiseClipped extends the sweep to arbitrary padding (windows that
// lie wholly in it included), even and rectangular kernels, rectangular
// strides, 1-24 channels (lane blocks with and without a tail) and special
// values in x and w.
func FuzzDepthwiseClipped(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(2), uint8(2), uint8(1), uint8(1), uint8(1), uint8(7), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(4), uint8(0), uint8(0), uint8(18), uint8(12), uint8(0xFF), int64(2)) // 2×2 plane, k5
	f.Add(uint8(8), uint8(2), uint8(4), uint8(2), uint8(1), uint8(0), uint8(3), uint8(23), uint8(0x1C), int64(3))  // 5×3 kernel, pad > SAME
	f.Fuzz(func(t *testing.T, hRaw, wRaw, khRaw, kwRaw, sHRaw, sWRaw, padRaw, cRaw, classes uint8, seed int64) {
		h, w := 1+int(hRaw)%12, 1+int(wRaw)%12
		kh, kw := 1+int(khRaw)%7, 1+int(kwRaw)%7
		spec := ConvSpec{StrideH: 1 + int(sHRaw)%3, StrideW: 1 + int(sWRaw)%3}
		spec.PadH = int(padRaw) % (kh + 2)
		spec.PadW = int(padRaw/8) % (kw + 2)
		if outSize(h, kh, spec.StrideH, spec.PadH) <= 0 || outSize(w, kw, spec.StrideW, spec.PadW) <= 0 {
			t.Skip("empty output")
		}
		rng := rand.New(rand.NewSource(seed))
		var special []float32
		for i, v := range dwClasses {
			if classes&(1<<i) != 0 {
				special = append(special, v)
			}
		}
		fill := func() float32 { // half the values special, if any class is on
			if len(special) == 0 || rng.Intn(2) == 0 {
				return float32(rng.NormFloat64())
			}
			return special[rng.Intn(len(special))]
		}
		checkDepthwiseClipped(t, rng, 2, 1+int(cRaw)%24, h, w, kh, kw, spec, fill)
	})
}

// TestDepthwiseIntoRejectsWrongDst: a dst with an output row too many, a
// column too few, a sample or a channel short stops both entry points with a
// named panic before any kernel writes, under either dispatch.
func TestDepthwiseIntoRejectsWrongDst(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := Randn(rng, 1, 2, 8, 6, 6)
	w := Randn(rng, 1, 8, 1, 3, 3)
	spec := ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	packed := PackDepthwise(make([]float32, PackedDepthwiseLen(w)), w)
	for _, shape := range [][]int{{2, 8, 7, 6}, {2, 8, 6, 5}, {1, 8, 6, 6}, {2, 7, 6, 6}} {
		for _, avx := range []bool{false, true} {
			restore := forceAVX2(avx)
			for _, packedW := range []bool{false, true} {
				dst := Full(3, shape...)
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "dst shape") {
							t.Errorf("dst %v avx2=%v packed=%v: panic %q, want a dst shape panic", shape, avx, packedW, msg)
						}
					}()
					if packedW {
						DepthwiseConv2DPackedInto(dst, x, packed, spec, nil)
					} else {
						DepthwiseConv2DInto(dst, x, w, spec)
					}
				}()
				for i, v := range dst.data {
					if v != 3 {
						t.Fatalf("dst %v avx2=%v packed=%v: element %d written before the check", shape, avx, packedW, i)
					}
				}
			}
			restore()
		}
	}
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
