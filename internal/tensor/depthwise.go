package tensor

import (
	"fmt"

	"effnetscale/internal/parallel"
)

// interiorRange returns the half-open output range [lo, hi) along one spatial
// dimension for which the kernel window lies entirely inside the input, i.e.
// no padding is touched. Outputs outside the range need per-tap bounds
// checks; outputs inside it do not.
func interiorRange(stride, pad, k, in, out int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	if lo > out {
		lo = out
	}
	last := in - k + pad // largest iy0 = oy*stride-pad allowed is in-k
	if last < 0 {
		return lo, lo
	}
	hi = last/stride + 1
	if hi > out {
		hi = out
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// dwGeom carries a depthwise convolution's resolved geometry to the
// per-channel worker functions. Passed by value: no allocation.
type dwGeom struct {
	h, w, kh, kw, oh, ow   int
	strideH, strideW       int
	padH, padW             int
	oyLo, oyHi, oxLo, oxHi int
}

// DepthwiseConv2D convolves each channel of x [N,C,H,W] with its own filter
// from w [C,1,KH,KW], returning [N,C,OH,OW]. This is the dominant operator of
// EfficientNet's MBConv blocks.
func DepthwiseConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	n, c, h, wd := x.Dim4()
	cw, one, kh, kw := w.Dim4()
	if cw != c || one != 1 {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D weight shape %v does not match channels %d", w.shape, c))
	}
	oh := outSize(h, kh, spec.StrideH, spec.PadH)
	ow := outSize(wd, kw, spec.StrideW, spec.PadW)
	out := New(n, c, oh, ow)
	DepthwiseConv2DInto(out, x, w, spec)
	return out
}

// DepthwiseConv2DInto computes the depthwise convolution into dst, which
// must have shape spec.OutShape-for-depthwise ([N,C,OH,OW]). It allocates
// nothing when running single-worker.
func DepthwiseConv2DInto(dst, x, w *Tensor, spec ConvSpec) {
	n, c, h, wd := x.Dim4()
	_, _, kh, kw := w.Dim4()
	_, _, oh, ow := dst.Dim4()
	g := dwGeom{h: h, w: wd, kh: kh, kw: kw, oh: oh, ow: ow,
		strideH: spec.StrideH, strideW: spec.StrideW, padH: spec.PadH, padW: spec.PadW}
	g.oyLo, g.oyHi = interiorRange(spec.StrideH, spec.PadH, kh, h, oh)
	g.oxLo, g.oxHi = interiorRange(spec.StrideW, spec.PadW, kw, wd, ow)
	if parallel.MaxWorkers() > 1 {
		parallel.For(n*c, func(nc int) {
			depthwiseForwardOne(dst, x, w, g, c, nc)
		})
		return
	}
	for nc := 0; nc < n*c; nc++ {
		depthwiseForwardOne(dst, x, w, g, c, nc)
	}
}

// depthwiseForwardOne convolves one (sample, channel) plane. The interior
// (windows fully inside the input) runs branch-free on subsliced rows; the
// border runs the checked path.
func depthwiseForwardOne(dst, x, w *Tensor, g dwGeom, c, nc int) {
	h, wd, kh, kw, oh, ow := g.h, g.w, g.kh, g.kw, g.oh, g.ow
	ch := nc % c
	xs := x.data[nc*h*wd : (nc+1)*h*wd]
	ws := w.data[ch*kh*kw : (ch+1)*kh*kw]
	os := dst.data[nc*oh*ow : (nc+1)*oh*ow]
	// Hot interior: every kernel tap is in-bounds, so the loop body
	// carries no branches and the compiler can elide bounds checks on
	// the subsliced rows.
	if kh == 3 && kw == 3 {
		w0, w1, w2 := ws[0], ws[1], ws[2]
		w3, w4, w5 := ws[3], ws[4], ws[5]
		w6, w7, w8 := ws[6], ws[7], ws[8]
		for oy := g.oyLo; oy < g.oyHi; oy++ {
			iy0 := oy*g.strideH - g.padH
			r0 := xs[iy0*wd : iy0*wd+wd]
			r1 := xs[(iy0+1)*wd : (iy0+1)*wd+wd]
			r2 := xs[(iy0+2)*wd : (iy0+2)*wd+wd]
			orow := os[oy*ow : oy*ow+ow]
			for ox := g.oxLo; ox < g.oxHi; ox++ {
				ix0 := ox*g.strideW - g.padW
				var acc float32
				acc += r0[ix0] * w0
				acc += r0[ix0+1] * w1
				acc += r0[ix0+2] * w2
				acc += r1[ix0] * w3
				acc += r1[ix0+1] * w4
				acc += r1[ix0+2] * w5
				acc += r2[ix0] * w6
				acc += r2[ix0+1] * w7
				acc += r2[ix0+2] * w8
				orow[ox] = acc
			}
		}
	} else {
		for oy := g.oyLo; oy < g.oyHi; oy++ {
			iy0 := oy*g.strideH - g.padH
			orow := os[oy*ow : oy*ow+ow]
			for ox := g.oxLo; ox < g.oxHi; ox++ {
				ix0 := ox*g.strideW - g.padW
				var acc float32
				for i := 0; i < kh; i++ {
					xrow := xs[(iy0+i)*wd+ix0 : (iy0+i)*wd+ix0+kw]
					wrow := ws[i*kw : i*kw+kw]
					for j, wv := range wrow {
						acc += xrow[j] * wv
					}
				}
				orow[ox] = acc
			}
		}
	}
	// Border: windows that overhang the input run the checked path.
	border := func(oy, ox int) {
		var acc float32
		for i := 0; i < kh; i++ {
			iy := oy*g.strideH - g.padH + i
			if iy < 0 || iy >= h {
				continue
			}
			for j := 0; j < kw; j++ {
				ix := ox*g.strideW - g.padW + j
				if ix < 0 || ix >= wd {
					continue
				}
				acc += xs[iy*wd+ix] * ws[i*kw+j]
			}
		}
		os[oy*ow+ox] = acc
	}
	for oy := 0; oy < g.oyLo; oy++ {
		for ox := 0; ox < ow; ox++ {
			border(oy, ox)
		}
	}
	for oy := g.oyHi; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			border(oy, ox)
		}
	}
	for oy := g.oyLo; oy < g.oyHi; oy++ {
		for ox := 0; ox < g.oxLo; ox++ {
			border(oy, ox)
		}
		for ox := g.oxHi; ox < ow; ox++ {
			border(oy, ox)
		}
	}
}

// DepthwiseConv2DBackward computes input and weight gradients of
// DepthwiseConv2D.
func DepthwiseConv2DBackward(x, w, dy *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	dx = New(x.shape...)
	dw = New(w.shape...)
	depthwiseConv2DBackward(dx, dw, x, w, dy, spec) // fresh tensors are already zero
	return dx, dw
}

// DepthwiseConv2DBackwardInto computes gradients into dx and dw, overwriting
// both; a nil dx skips the input gradient (dw is the same bits either way).
// It allocates nothing when running single-worker. Channels are processed
// independently (each channel's dw slice has a single owner), so the result
// is deterministic under any goroutine schedule.
func DepthwiseConv2DBackwardInto(dx, dw, x, w, dy *Tensor, spec ConvSpec) {
	if (dx != nil && !SameShape(dx, x)) || !SameShape(dw, w) {
		panic(fmt.Sprintf("tensor: DepthwiseConv2DBackwardInto gradient shapes dx=%v dw=%v, want %v and %v", dx, dw, x.shape, w.shape))
	}
	if dx != nil {
		dx.Zero()
	}
	dw.Zero()
	depthwiseConv2DBackward(dx, dw, x, w, dy, spec)
}

// depthwiseConv2DBackward accumulates into zeroed dx (nil = skip) and dw.
func depthwiseConv2DBackward(dx, dw, x, w, dy *Tensor, spec ConvSpec) {
	n, c, h, wd := x.Dim4()
	_, _, kh, kw := w.Dim4()
	_, _, oh, ow := dy.Dim4()
	g := dwGeom{h: h, w: wd, kh: kh, kw: kw, oh: oh, ow: ow,
		strideH: spec.StrideH, strideW: spec.StrideW, padH: spec.PadH, padW: spec.PadW}
	g.oyLo, g.oyHi = interiorRange(spec.StrideH, spec.PadH, kh, h, oh)
	g.oxLo, g.oxHi = interiorRange(spec.StrideW, spec.PadW, kw, wd, ow)
	if parallel.MaxWorkers() > 1 {
		parallel.For(c, func(ch int) {
			depthwiseBackwardChannel(dx, dw, x, w, dy, g, n, c, ch)
		})
		return
	}
	for ch := 0; ch < c; ch++ {
		depthwiseBackwardChannel(dx, dw, x, w, dy, g, n, c, ch)
	}
}

// depthwiseBackwardChannel accumulates input and weight gradients for one
// channel across all samples (weight gradients only when dx is nil). Outputs
// are visited in row-major (oy, ox) order with kernel taps ascending, so
// accumulation order — and therefore the float32 result — is identical to a
// naive quadruple loop.
func depthwiseBackwardChannel(dx, dw, x, w, dy *Tensor, g dwGeom, n, c, ch int) {
	h, wd, kh, kw, oh, ow := g.h, g.w, g.kh, g.kw, g.oh, g.ow
	ws := w.data[ch*kh*kw : (ch+1)*kh*kw]
	dws := dw.data[ch*kh*kw : (ch+1)*kh*kw]
	for s := 0; s < n; s++ {
		nc := s*c + ch
		xs := x.data[nc*h*wd : (nc+1)*h*wd]
		var dxs []float32
		if dx != nil {
			dxs = dx.data[nc*h*wd : (nc+1)*h*wd]
		}
		dys := dy.data[nc*oh*ow : (nc+1)*oh*ow]
		// Checked path for the full window; shared by border outputs.
		scatter := func(oy, ox int) {
			gv := dys[oy*ow+ox]
			for i := 0; i < kh; i++ {
				iy := oy*g.strideH - g.padH + i
				if iy < 0 || iy >= h {
					continue
				}
				for j := 0; j < kw; j++ {
					ix := ox*g.strideW - g.padW + j
					if ix < 0 || ix >= wd {
						continue
					}
					if dxs != nil {
						dxs[iy*wd+ix] += gv * ws[i*kw+j]
					}
					dws[i*kw+j] += gv * xs[iy*wd+ix]
				}
			}
		}
		for oy := 0; oy < g.oyLo; oy++ {
			for ox := 0; ox < ow; ox++ {
				scatter(oy, ox)
			}
		}
		for oy := g.oyLo; oy < g.oyHi; oy++ {
			for ox := 0; ox < g.oxLo; ox++ {
				scatter(oy, ox)
			}
			iy0 := oy*g.strideH - g.padH
			for ox := g.oxLo; ox < g.oxHi; ox++ {
				ix0 := ox*g.strideW - g.padW
				gv := dys[oy*ow+ox]
				if dxs == nil {
					for i := 0; i < kh; i++ {
						xrow := xs[(iy0+i)*wd+ix0 : (iy0+i)*wd+ix0+kw]
						dwrow := dws[i*kw : i*kw+kw]
						for j := range dwrow {
							dwrow[j] += gv * xrow[j]
						}
					}
					continue
				}
				for i := 0; i < kh; i++ {
					dxrow := dxs[(iy0+i)*wd+ix0 : (iy0+i)*wd+ix0+kw]
					xrow := xs[(iy0+i)*wd+ix0 : (iy0+i)*wd+ix0+kw]
					wrow := ws[i*kw : i*kw+kw]
					dwrow := dws[i*kw : i*kw+kw]
					for j := range wrow {
						dxrow[j] += gv * wrow[j]
						dwrow[j] += gv * xrow[j]
					}
				}
			}
			for ox := g.oxHi; ox < ow; ox++ {
				scatter(oy, ox)
			}
		}
		for oy := g.oyHi; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				scatter(oy, ox)
			}
		}
	}
}
