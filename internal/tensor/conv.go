package tensor

import (
	"fmt"

	"effnetscale/internal/parallel"
)

// ConvSpec describes a 2-D convolution's geometry. Padding is symmetric
// (PadH rows above and below, PadW columns left and right), which is how the
// layer code realizes TensorFlow-style SAME padding for odd kernels.
type ConvSpec struct {
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the spatial output size for an input of size in with
// kernel size k under the spec, for one dimension.
func outSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// OutShape returns the NCHW output shape of Conv2D(x, w, spec).
func (s ConvSpec) OutShape(x, w *Tensor) []int {
	n, _, h, wd := x.Dim4()
	cout := w.Dim(0)
	kh, kw := w.Dim(2), w.Dim(3)
	return []int{n, cout, outSize(h, kh, s.StrideH, s.PadH), outSize(wd, kw, s.StrideW, s.PadW)}
}

// SamePad returns the symmetric padding that keeps output size == ceil(in/stride)
// for an odd kernel size k.
func SamePad(k int) int { return (k - 1) / 2 }

// is1x1 reports whether the convolution is a pointwise (1×1, unpadded)
// conv — the shape the dedicated fast path handles without im2col.
func is1x1(kh, kw int, spec ConvSpec) bool {
	return kh == 1 && kw == 1 && spec.PadH == 0 && spec.PadW == 0
}

// im2col expands one sample's receptive fields into a column matrix of shape
// [Cin*KH*KW, OH*OW]. xd is the sample's [Cin,H,W] data. The result is
// written into col, which must have the right size.
func im2col(col []float32, xd []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	// col[(c*kh*kw + i*kw + j) * (oh*ow) + (oy*ow + ox)] = x[c, oy*s - p + i, ox*s - p + j]
	ohw := oh * ow
	for c := 0; c < cin; c++ {
		xbase := c * h * w
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*ohw:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + i
					orow := crow[oy*ow : oy*ow+ow]
					if iy < 0 || iy >= h {
						for ox := range orow {
							orow[ox] = 0
						}
						continue
					}
					xrow := xd[xbase+iy*w : xbase+iy*w+w]
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW - spec.PadW + j
						if ix < 0 || ix >= w {
							orow[ox] = 0
						} else {
							orow[ox] = xrow[ix]
						}
					}
				}
			}
		}
	}
}

// col2im scatters a column-matrix gradient back into an input-shaped gradient
// (accumulating where receptive fields overlap).
func col2im(dx []float32, col []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	ohw := oh * ow
	for c := 0; c < cin; c++ {
		xbase := c * h * w
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*ohw:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + i
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*spec.StrideW - spec.PadW + j
						if ix < 0 || ix >= w {
							continue
						}
						dx[xbase+iy*w+ix] += crow[oy*ow+ox]
					}
				}
			}
		}
	}
}

// Conv2D computes a standard convolution of x [N,Cin,H,W] with weights
// w [Cout,Cin,KH,KW] under spec, returning [N,Cout,OH,OW]. Temporaries come
// from the process-wide default arena; engines with their own Scratch use
// Conv2DScratch.
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	return Conv2DScratch(x, w, spec, nil)
}

// Conv2DScratch is Conv2D drawing its temporaries from sc (nil = default).
func Conv2DScratch(x, w *Tensor, spec ConvSpec, sc *Scratch) *Tensor {
	out := New(spec.OutShape(x, w)...)
	Conv2DInto(out, x, w, spec, sc)
	return out
}

// Conv2DInto computes the convolution into dst, which must have shape
// spec.OutShape(x, w). Steady-state it allocates nothing: the im2col column
// matrix and GEMM packing panels are reused through sc.
func Conv2DInto(dst, x, w *Tensor, spec ConvSpec, sc *Scratch) {
	n, cin, h, wd := x.Dim4()
	cout, cin2, kh, kw := w.Dim4()
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch x=%v w=%v", x.shape, w.shape))
	}
	oh := outSize(h, kh, spec.StrideH, spec.PadH)
	ow := outSize(wd, kw, spec.StrideW, spec.PadW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for x=%v w=%v spec=%+v", x.shape, w.shape, spec))
	}
	dn, dc, doh, dow := dst.Dim4()
	if dn != n || dc != cout || doh != oh || dow != ow {
		panic(fmt.Sprintf("tensor: Conv2DInto dst shape %v, want %v", dst.shape, []int{n, cout, oh, ow}))
	}
	arena := sc.orDefault()

	// Parallelize across samples when the batch can feed every worker;
	// otherwise run samples serially and let the GEMM spread row blocks.
	// The closure exists only on the parallel branch so the serial path
	// (named function, explicit args) stays allocation-free.
	if workers := parallel.MaxWorkers(); workers > 1 && n >= workers {
		parallel.ForChunked(n, 1, func(lo, hi int) {
			conv2DForwardRange(dst, x, w, spec, arena, false, lo, hi)
		})
	} else {
		conv2DForwardRange(dst, x, w, spec, arena, true, 0, n)
	}
}

// conv2DForwardRange convolves samples [lo, hi) into dst. gemmPar spreads
// each sample's GEMM over row-block workers; callers already fanned out
// across samples pass false to avoid nested parallelism.
func conv2DForwardRange(dst, x, w *Tensor, spec ConvSpec, arena *Scratch, gemmPar bool, lo, hi int) {
	_, cin, h, wd := x.Dim4()
	cout, _, kh, kw := w.Dim4()
	_, _, oh, ow := dst.Dim4()
	ckk := cin * kh * kw
	ohw := oh * ow
	chw := cin * h * wd
	if is1x1(kh, kw, spec) && spec.StrideH == 1 && spec.StrideW == 1 {
		// Pointwise fast path: out_s [Cout,HW] = W [Cout,Cin] @ x_s
		// [Cin,HW] — the input matrix is the activation itself, no
		// im2col copy at all. This is the layout the channel-sharded
		// 1×1 convs of the hybrid engine hit (efficientnet.Conv1x1Fn).
		for s := lo; s < hi; s++ {
			gemm(dst.data[s*cout*ohw:(s+1)*cout*ohw], w.data, cin, false,
				x.data[s*chw:(s+1)*chw], ohw, false, cout, ohw, cin, false, arena, gemmPar)
		}
		return
	}
	if is1x1(kh, kw, spec) {
		// Strided 1×1: gather the strided grid into a dense [Cin,OHW]
		// matrix (far smaller than an im2col buffer), then one GEMM.
		gp := arena.get(cin * ohw)
		for s := lo; s < hi; s++ {
			gather1x1(*gp, x.data[s*chw:(s+1)*chw], cin, h, wd, oh, ow, spec)
			gemm(dst.data[s*cout*ohw:(s+1)*cout*ohw], w.data, cin, false,
				*gp, ohw, false, cout, ohw, cin, false, arena, gemmPar)
		}
		arena.put(gp)
		return
	}
	cp := arena.get(ckk * ohw)
	for s := lo; s < hi; s++ {
		im2col(*cp, x.data[s*chw:(s+1)*chw], cin, h, wd, kh, kw, oh, ow, spec)
		// out_s [Cout,OHW] = W [Cout,CKK] @ col [CKK,OHW]
		gemm(dst.data[s*cout*ohw:(s+1)*cout*ohw], w.data, ckk, false,
			*cp, ohw, false, cout, ohw, ckk, false, arena, gemmPar)
	}
	arena.put(cp)
}

// gather1x1 packs the stride-sampled spatial grid of one [Cin,H,W] sample
// into a dense [Cin,OH*OW] matrix.
func gather1x1(dst, xs []float32, cin, h, w, oh, ow int, spec ConvSpec) {
	ohw := oh * ow
	for c := 0; c < cin; c++ {
		d := dst[c*ohw : (c+1)*ohw]
		for oy := 0; oy < oh; oy++ {
			xrow := xs[c*h*w+oy*spec.StrideH*w:]
			drow := d[oy*ow : oy*ow+ow]
			for ox := range drow {
				drow[ox] = xrow[ox*spec.StrideW]
			}
		}
	}
}

// scatter1x1Add adds a dense [Cin,OH*OW] gradient back onto the
// stride-sampled positions of one [Cin,H,W] gradient.
func scatter1x1Add(dxs, g []float32, cin, h, w, oh, ow int, spec ConvSpec) {
	ohw := oh * ow
	for c := 0; c < cin; c++ {
		s := g[c*ohw : (c+1)*ohw]
		for oy := 0; oy < oh; oy++ {
			dxrow := dxs[c*h*w+oy*spec.StrideH*w:]
			srow := s[oy*ow : oy*ow+ow]
			for ox := range srow {
				dxrow[ox*spec.StrideW] += srow[ox]
			}
		}
	}
}

// Conv2DBackward computes the gradients of Conv2D with respect to the input
// and the weights given the upstream gradient dy [N,Cout,OH,OW].
func Conv2DBackward(x, w, dy *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	return Conv2DBackwardScratch(x, w, dy, spec, nil)
}

// Conv2DBackwardScratch is Conv2DBackward drawing temporaries from sc.
func Conv2DBackwardScratch(x, w, dy *Tensor, spec ConvSpec, sc *Scratch) (dx, dw *Tensor) {
	dx = New(x.shape...)
	dw = New(w.shape...)
	conv2DBackward(dx, dw, x, w, dy, spec, sc) // fresh tensors are already zero
	return dx, dw
}

// Conv2DBackwardInto computes input and weight gradients into dx and dw
// (overwriting both; shapes must match x and w). A nil dx skips the input
// gradient — the Wᵀ@dy GEMM and its col2im — for callers whose input takes
// no gradient (the stem conv over a batch of images); dw is the same bits
// either way. Steady-state it allocates nothing. Worker-partial weight
// gradients merge in deterministic chunk order, so results do not depend on
// goroutine scheduling.
func Conv2DBackwardInto(dx, dw, x, w, dy *Tensor, spec ConvSpec, sc *Scratch) {
	if (dx != nil && !SameShape(dx, x)) || !SameShape(dw, w) {
		panic(fmt.Sprintf("tensor: Conv2DBackwardInto gradient shapes dx=%v dw=%v, want %v and %v", dx, dw, x.shape, w.shape))
	}
	if dx != nil {
		dx.Zero()
	}
	dw.Zero()
	conv2DBackward(dx, dw, x, w, dy, spec, sc)
}

// conv2DBackward accumulates into zeroed dx (nil = skip) and dw.
func conv2DBackward(dx, dw, x, w, dy *Tensor, spec ConvSpec, sc *Scratch) {
	n := x.Dim(0)
	arena := sc.orDefault()

	workers := parallel.MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		conv2DBackwardRange(dx, dw.data, x, w, dy, spec, arena, false, 0, n)
		return
	}
	// Deterministic parallel reduction: chunk c accumulates into its own
	// region of one pooled buffer, and the partials merge in chunk order —
	// the sum never depends on which worker finished first.
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	wlen := len(w.data)
	pp := arena.getZeroed(nChunks * wlen)
	partials := *pp
	parallel.ForChunked(nChunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			conv2DBackwardRange(dx, partials[c*wlen:(c+1)*wlen], x, w, dy, spec, arena, false, lo, hi)
		}
	})
	for c := 0; c < nChunks; c++ {
		part := partials[c*wlen : (c+1)*wlen]
		for i, v := range part {
			dw.data[i] += v
		}
	}
	arena.put(pp)
}

// conv2DBackwardRange accumulates the weight gradient of samples [lo, hi)
// into dwAcc and, unless dx is nil, writes their (exclusively owned)
// input-gradient slices of dx. A named function so the single-worker path
// allocates nothing.
func conv2DBackwardRange(dx *Tensor, dwAcc []float32, x, w, dy *Tensor, spec ConvSpec, arena *Scratch, gemmPar bool, lo, hi int) {
	_, cin, h, wd := x.Dim4()
	cout, _, kh, kw := w.Dim4()
	_, _, oh, ow := dy.Dim4()
	ckk := cin * kh * kw
	ohw := oh * ow
	chw := cin * h * wd
	pointwise := is1x1(kh, kw, spec)
	unitStride := spec.StrideH == 1 && spec.StrideW == 1
	if pointwise && unitStride {
		for s := lo; s < hi; s++ {
			dys := dy.data[s*cout*ohw : (s+1)*cout*ohw]
			// dW [Cout,Cin] += dy_s [Cout,HW] @ x_sᵀ
			gemm(dwAcc, dys, ohw, false, x.data[s*chw:(s+1)*chw], ohw, true,
				cout, cin, ohw, true, arena, gemmPar)
			if dx != nil {
				// dx_s [Cin,HW] = Wᵀ [Cin,Cout] @ dy_s
				gemm(dx.data[s*chw:(s+1)*chw], w.data, cin, true, dys, ohw, false,
					cin, ohw, cout, false, arena, gemmPar)
			}
		}
		return
	}
	if pointwise {
		gp := arena.get(cin * ohw)
		dgp := arena.get(cin * ohw)
		for s := lo; s < hi; s++ {
			dys := dy.data[s*cout*ohw : (s+1)*cout*ohw]
			gather1x1(*gp, x.data[s*chw:(s+1)*chw], cin, h, wd, oh, ow, spec)
			gemm(dwAcc, dys, ohw, false, *gp, ohw, true, cout, cin, ohw, true, arena, gemmPar)
			if dx != nil {
				gemm(*dgp, w.data, cin, true, dys, ohw, false, cin, ohw, cout, false, arena, gemmPar)
				scatter1x1Add(dx.data[s*chw:(s+1)*chw], *dgp, cin, h, wd, oh, ow, spec)
			}
		}
		arena.put(dgp)
		arena.put(gp)
		return
	}
	cp := arena.get(ckk * ohw)
	dcp := arena.get(ckk * ohw)
	for s := lo; s < hi; s++ {
		dys := dy.data[s*cout*ohw : (s+1)*cout*ohw]
		im2col(*cp, x.data[s*chw:(s+1)*chw], cin, h, wd, kh, kw, oh, ow, spec)
		// dW [Cout,CKK] += dy_s [Cout,OHW] @ colᵀ
		gemm(dwAcc, dys, ohw, false, *cp, ohw, true, cout, ckk, ohw, true, arena, gemmPar)
		if dx != nil {
			// dcol [CKK,OHW] = Wᵀ [CKK,Cout] @ dy_s
			gemm(*dcp, w.data, ckk, true, dys, ohw, false, ckk, ohw, cout, false, arena, gemmPar)
			col2im(dx.data[s*chw:(s+1)*chw], *dcp, cin, h, wd, kh, kw, oh, ow, spec)
		}
	}
	arena.put(dcp)
	arena.put(cp)
}
