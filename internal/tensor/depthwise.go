package tensor

import (
	"fmt"

	"effnetscale/internal/parallel"
)

// interiorRange returns the half-open output range [lo, hi) along one spatial
// dimension for which the kernel window lies entirely inside the input, i.e.
// no padding is touched. Outputs outside the range have their window
// clipped (clipTaps); outputs inside it use the whole kernel.
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

// clipTaps returns the half-open range [lo, hi) of kernel taps t in [0, k)
// whose input coordinate i0+t lies inside [0, in) — the part of a window
// starting at i0 that overlaps real data. The range is empty (lo >= hi) for
// a window wholly in the padding.
func clipTaps(i0, k, in int) (lo, hi int) {
	return max(0, -i0), min(k, in-i0)
}

// dwGeom carries a depthwise convolution's resolved geometry to the
// per-channel worker functions. Passed by value: no allocation. Output
// columns [oxLo, oxHi) see the full kernel width; the others clip it.
type dwGeom struct {
	h, w, kh, kw, oh, ow int
	strideH, strideW     int
	padH, padW           int
	oxLo, oxHi           int
}

func newDWGeom(h, w, kh, kw, oh, ow int, spec ConvSpec) dwGeom {
	g := dwGeom{h: h, w: w, kh: kh, kw: kw, oh: oh, ow: ow,
		strideH: spec.StrideH, strideW: spec.StrideW, padH: spec.PadH, padW: spec.PadW}
	g.oxLo, g.oxHi = interiorRange(spec.StrideW, spec.PadW, kw, w, ow)
	return g
}

// DepthwiseConv2D convolves each channel of x [N,C,H,W] with its own filter
// from w [C,1,KH,KW], returning [N,C,OH,OW]. This is the dominant operator of
// EfficientNet's MBConv blocks.
func DepthwiseConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	out := New(spec.OutShape(x, w)...)
	DepthwiseConv2DInto(out, x, w, spec)
	return out
}

// DepthwiseConv2DInto computes the depthwise convolution into dst, which
// must have shape spec.OutShape(x, w) ([N,C,OH,OW]). It allocates nothing
// when running single-worker.
func DepthwiseConv2DInto(dst, x, w *Tensor, spec ConvSpec) {
	DepthwiseConv2DPackedInto(dst, x, PackDepthwise(nil, w), spec, nil)
}

// PackedDepthwise is a depthwise convolution's weights [C,1,KH,KW]: the
// row-major weights the Go loop reads (raw) and, packed once, the form the
// AVX2 kernel reads (lanes), [⌈C/8⌉][KH·KW][8] with zeros past channel C.
type PackedDepthwise struct {
	c, kh, kw  int
	raw, lanes []float32
}

// PackedDepthwiseLen returns the floats PackDepthwise needs for w.
func PackedDepthwiseLen(w *Tensor) int {
	c, _, kh, kw := w.Dim4()
	return (c + (c+7)/8*8) * kh * kw
}

// PackDepthwise copies w into buf, which must hold PackedDepthwiseLen(w)
// floats, raw and lane-packed; the result views buf. Element-wise changes to
// buf afterwards (bf16 rounding) act as if made to w before packing: the
// padding is zeros. A nil buf packs nothing: the operand reads w, and every
// call lane-packs it as DepthwiseConv2DInto does.
func PackDepthwise(buf []float32, w *Tensor) PackedDepthwise {
	c, one, kh, kw := w.Dim4()
	if one != 1 {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D weight shape %v is not [C,1,KH,KW]", w.shape))
	}
	if buf == nil {
		return PackedDepthwise{c, kh, kw, w.data, nil}
	}
	if len(buf) != PackedDepthwiseLen(w) {
		panic(fmt.Sprintf("tensor: PackDepthwise of %v into %d floats, want %d", w.shape, len(buf), PackedDepthwiseLen(w)))
	}
	raw := buf[:copy(buf, w.data)]
	packLanes(buf[len(raw):], raw, c, kh*kw)
	return PackedDepthwise{c, kh, kw, raw, buf[len(raw):]}
}

// packLanes lane-packs the weights raw [C][taps] into buf.
func packLanes(buf, raw []float32, c, taps int) {
	clear(buf)
	for ch := 0; ch < c; ch++ {
		for t, v := range raw[ch*taps : (ch+1)*taps] {
			buf[(ch/8*taps+t)*8+ch%8] = v
		}
	}
}

// DepthwiseConv2DPackedInto is DepthwiseConv2DInto over weights packed by
// PackDepthwise: the same bits (any NaN for a NaN under AVX2). Temporaries come from sc (nil = the
// process-wide pool). With AVX2 it runs eight channels of a sample per
// register (depthwiseLanes); elsewhere, per (sample, channel) plane in Go.
func DepthwiseConv2DPackedInto(dst, x *Tensor, w PackedDepthwise, spec ConvSpec, sc *Scratch) {
	n, c, h, wd := x.Dim4()
	if c != w.c {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D weight shape %v does not match channels %d", []int{w.c, 1, w.kh, w.kw}, c))
	}
	// The assembly has no bounds checks: a dst of the wrong shape (or an
	// empty output) must stop here, not write past its end.
	oh, ow := outSize(h, w.kh, spec.StrideH, spec.PadH), outSize(wd, w.kw, spec.StrideW, spec.PadW)
	if dn, dc, doh, dow := dst.Dim4(); dn != n || dc != c || doh != oh || dow != ow || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: DepthwiseConv2DInto dst shape %v, want %v", dst.shape, []int{n, c, oh, ow}))
	}
	g := newDWGeom(h, wd, w.kh, w.kw, oh, ow, spec)
	if depthwiseLanes(dst, x, w, g, sc.orDefault()) {
		return
	}
	if parallel.MaxWorkers() > 1 {
		parallel.For(n*c, func(nc int) {
			depthwiseForwardOne(dst, x, w.raw, g, c, nc)
		})
		return
	}
	for nc := 0; nc < n*c; nc++ {
		depthwiseForwardOne(dst, x, w.raw, g, c, nc)
	}
}

// depthwiseForwardOne convolves one (sample, channel) plane. The tap window
// is clipped against the input once per output row and once per output
// column, so no tap is ever bounds-tested; taps run i ascending then j
// ascending over the clipped window, which is the naive checked loop's order
// with the skipped taps left out.
func depthwiseForwardOne(dst, x *Tensor, w []float32, g dwGeom, c, nc int) {
	h, wd, kh, kw, oh, ow, sw := g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.strideW
	ch := nc % c
	xs := x.data[nc*h*wd : (nc+1)*h*wd]
	ws := w[ch*kh*kw : (ch+1)*kh*kw]
	os := dst.data[nc*oh*ow : (nc+1)*oh*ow]
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*g.strideH - g.padH
		iLo, iHi := clipTaps(iy0, kh, h)
		orow := os[oy*ow : oy*ow+ow]
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*sw - g.padW
			jLo, jHi := clipTaps(ix0, kw, wd)
			var acc float32
			for i := iLo; i < iHi; i++ {
				xo, wo := (iy0+i)*wd+ix0, i*kw
				for j := jLo; j < jHi; j++ {
					acc += xs[xo+j] * ws[wo+j]
				}
			}
			orow[ox] = acc
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
	g := newDWGeom(h, wd, kh, kw, oh, ow, spec)
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
// channel across all samples (weight gradients only when dx is nil), over
// the windows depthwiseForwardOne clips. Every gradient element receives its
// contributions in row-major order of the outputs that touch it — the naive
// checked quadruple loop's order, so the float32 result is identical to it.
// That leaves the full-width outputs of a row free to go one kernel row at a
// time, which keeps that row's weights and weight gradients in registers.
func depthwiseBackwardChannel(dx, dw, x, w, dy *Tensor, g dwGeom, n, c, ch int) {
	h, wd, kh, kw, oh, ow, sw := g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.strideW
	ws := w.data[ch*kh*kw : (ch+1)*kh*kw]
	dws := dw.data[ch*kh*kw : (ch+1)*kh*kw]
	unrolled := dx != nil && (kw == 3 || kw == 5) && g.oxLo < g.oxHi
	for s := 0; s < n; s++ {
		nc := s*c + ch
		xs := x.data[nc*h*wd : (nc+1)*h*wd]
		var dxs []float32
		if dx != nil {
			dxs = dx.data[nc*h*wd : (nc+1)*h*wd]
		}
		dys := dy.data[nc*oh*ow : (nc+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.strideH - g.padH
			iLo, iHi := clipTaps(iy0, kh, h)
			dyrow := dys[oy*ow : oy*ow+ow]
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*sw - g.padW
				if unrolled && ox == g.oxLo {
					for i := iLo; i < iHi; i++ {
						base := (iy0+i)*wd + ix0
						if kw == 3 {
							depthwiseGradRun3(dyrow[ox:g.oxHi], xs[base:], dxs[base:], ws[i*3:i*3+3], dws[i*3:i*3+3], sw)
						} else {
							depthwiseGradRun5(dyrow[ox:g.oxHi], xs[base:], dxs[base:], ws[i*5:i*5+5], dws[i*5:i*5+5], sw)
						}
					}
					ox = g.oxHi - 1
					continue
				}
				jLo, jHi := clipTaps(ix0, kw, wd)
				gv := dyrow[ox]
				for i := iLo; i < iHi; i++ {
					xo, wo := (iy0+i)*wd+ix0, i*kw
					for j := jLo; j < jHi; j++ {
						if dxs != nil {
							dxs[xo+j] += gv * ws[wo+j]
						}
						dws[wo+j] += gv * xs[xo+j]
					}
				}
			}
		}
	}
}

// depthwiseGradRun3 backpropagates one 3-wide kernel row through a run of
// outputs whose windows span the full kernel width: xs and dxs start at the
// first output's tap 0 of that row, consecutive outputs sw apart.
func depthwiseGradRun3(dy, xs, dxs, w, dw []float32, sw int) {
	w0, w1, w2 := w[0], w[1], w[2]
	d0, d1, d2 := dw[0], dw[1], dw[2]
	for t, gv := range dy {
		o := t * sw
		p, q := xs[o:o+3:o+3], dxs[o:o+3:o+3]
		q[0] += gv * w0
		q[1] += gv * w1
		q[2] += gv * w2
		d0 += gv * p[0]
		d1 += gv * p[1]
		d2 += gv * p[2]
	}
	dw[0], dw[1], dw[2] = d0, d1, d2
}

// depthwiseGradRun5 is depthwiseGradRun3 for a 5-wide kernel row.
func depthwiseGradRun5(dy, xs, dxs, w, dw []float32, sw int) {
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	d0, d1, d2, d3, d4 := dw[0], dw[1], dw[2], dw[3], dw[4]
	for t, gv := range dy {
		o := t * sw
		p, q := xs[o:o+5:o+5], dxs[o:o+5:o+5]
		q[0] += gv * w0
		q[1] += gv * w1
		q[2] += gv * w2
		q[3] += gv * w3
		q[4] += gv * w4
		d0 += gv * p[0]
		d1 += gv * p[1]
		d2 += gv * p[2]
		d3 += gv * p[3]
		d4 += gv * p[4]
	}
	dw[0], dw[1], dw[2], dw[3], dw[4] = d0, d1, d2, d3, d4
}
