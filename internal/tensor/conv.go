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

// isDirect reports whether the convolution is a pointwise (1×1, unpadded,
// unit-stride) conv — the shape whose column matrix is the activation
// itself, so it runs without an im2col copy.
func isDirect(kh, kw int, spec ConvSpec) bool {
	return kh == 1 && kw == 1 && spec.PadH == 0 && spec.PadW == 0 && spec.StrideH == 1 && spec.StrideW == 1
}

// convFoldCols caps the columns one batched GEMM call folds together:
// conv2DForwardRange and conv2DBackwardRange hand gemmBatch groups of
// max(1, convFoldCols/(OH*OW)) samples, so the im2col and packed-B buffers
// are sized by the group, not the batch, and the weights are packed once per
// group instead of once per sample. The value is a memory bound, not a
// tuning knob: pico at batch 32 runs at the same speed from 512 columns up
// to no cap at all (only 256, one 16×16 sample per call, is slower), and at
// 2048 maps up to 8×8 still fold the whole batch into one call.
const convFoldCols = 2048

// tapRange returns the half-open range [lo, hi) of output positions o in
// [0, out) whose input coordinate o*stride+off lies inside [0, in): the
// outputs for which one kernel tap (off = tap - pad) reads real data.
func tapRange(off, stride, in, out int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if in > off {
		hi = (in-off-1)/stride + 1
	}
	hi = min(hi, out)
	lo = min(lo, hi)
	return lo, hi
}

// im2col expands one sample's receptive fields into a column matrix of shape
// [Cin*KH*KW, OH*OW]. xd is the sample's [Cin,H,W] data. The result is
// written into col, which must have the right size. Each (tap, output row)
// is one clipped run: zero margins where the tap falls in the padding, a
// copy (or a strided walk) of the input row between them.
func im2col(col []float32, xd []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	// col[(c*kh*kw + i*kw + j) * (oh*ow) + (oy*ow + ox)] = x[c, oy*s - p + i, ox*s - p + j]
	ohw := oh * ow
	sw := spec.StrideW
	for c := 0; c < cin; c++ {
		xbase := c * h * w
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*ohw:]
				off := j - spec.PadW
				oxLo, oxHi := tapRange(off, sw, w, ow)
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + i
					orow := crow[oy*ow : oy*ow+ow]
					if iy < 0 || iy >= h {
						clear(orow)
						continue
					}
					xrow := xd[xbase+iy*w : xbase+iy*w+w]
					clear(orow[:oxLo])
					clear(orow[oxHi:])
					if sw == 1 {
						copy(orow[oxLo:oxHi], xrow[oxLo+off:])
						continue
					}
					ix := oxLo*sw + off
					for ox := oxLo; ox < oxHi; ox++ {
						orow[ox] = xrow[ix]
						ix += sw
					}
				}
			}
		}
	}
}

// col2im scatters a column-matrix gradient back into an input-shaped gradient
// (accumulating where receptive fields overlap), over the same clipped runs
// im2col reads.
func col2im(dx []float32, col []float32, cin, h, w, kh, kw, oh, ow int, spec ConvSpec) {
	ohw := oh * ow
	sw := spec.StrideW
	for c := 0; c < cin; c++ {
		xbase := c * h * w
		for i := 0; i < kh; i++ {
			for j := 0; j < kw; j++ {
				crow := col[(c*kh*kw+i*kw+j)*ohw:]
				off := j - spec.PadW
				oxLo, oxHi := tapRange(off, sw, w, ow)
				for oy := 0; oy < oh; oy++ {
					iy := oy*spec.StrideH - spec.PadH + i
					if iy < 0 || iy >= h {
						continue
					}
					dxrow := dx[xbase+iy*w : xbase+iy*w+w]
					ix := oxLo*sw + off
					for _, v := range crow[oy*ow+oxLo : oy*ow+oxHi] {
						dxrow[ix] += v
						ix += sw
					}
				}
			}
		}
	}
}

// Conv2D computes a standard convolution of x [N,Cin,H,W] with weights
// w [Cout,Cin,KH,KW] under spec, returning [N,Cout,OH,OW]. Temporaries come
// from the process-wide default pool; engines with their own Scratch use
// Conv2DInto.
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	out := New(spec.OutShape(x, w)...)
	Conv2DInto(out, x, w, spec, nil)
	return out
}

// Conv2DInto computes the convolution into dst, which must have shape
// spec.OutShape(x, w). Steady-state it allocates nothing: the im2col column
// matrix and GEMM packing panels are reused through sc.
func Conv2DInto(dst, x, w *Tensor, spec ConvSpec, sc *Scratch) {
	Conv2DPackedInto(dst, x, PackConv(nil, w), spec, sc)
}

// PackedConv is a convolution's weights [Cout,Cin,KH,KW] as the
// [Cout, Cin·KH·KW] A operand of its GEMM: the row-major weights, which every
// call packs (raw), or the row panels every call would pack, packed once
// (panels) — the frozen inference plan's form of a weight that no longer
// changes.
type PackedConv struct {
	cout, cin, kh, kw int
	raw, panels       []float32
}

// PackedConvLen returns the floats PackConv needs for w.
func PackedConvLen(w *Tensor) int {
	cout, cin, kh, kw := w.Dim4()
	return packedLen(cout, gemmMR, cin*kh*kw)
}

// PackConv packs w into buf, which must hold PackedConvLen(w) floats; the
// result views buf. The panels lie k-slab by k-slab and row block by row
// block, where the GEMM reads them. Element-wise changes to buf afterwards
// (bf16 rounding) act as if made to w before packing: the padding is zeros.
// A nil buf packs nothing: the operand reads w, and every call packs it as
// Conv2DInto does.
func PackConv(buf []float32, w *Tensor) PackedConv {
	cout, cin, kh, kw := w.Dim4()
	if buf == nil {
		return PackedConv{cout, cin, kh, kw, w.data, nil}
	}
	if len(buf) != PackedConvLen(w) {
		panic(fmt.Sprintf("tensor: PackConv of %v into %d floats, want %d", w.shape, len(buf), PackedConvLen(w)))
	}
	m, k := cout, cin*kh*kw
	mpad := packedLen(m, gemmMR, 1)
	for p0 := 0; p0 < k; p0 += gemmKC {
		kl := min(k-p0, gemmKC)
		for i0 := 0; i0 < m; i0 += gemmMC {
			packA(buf[p0*mpad+i0*kl:], w.data, k, false, i0, min(m-i0, gemmMC), p0, kl)
		}
	}
	return PackedConv{cout, cin, kh, kw, nil, buf}
}

// Conv2DPackedInto is Conv2DInto over weights packed once: the same bits,
// without packing the weights.
func Conv2DPackedInto(dst, x *Tensor, w PackedConv, spec ConvSpec, sc *Scratch) {
	n, cin, h, wd := x.Dim4()
	if cin != w.cin {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch x=%v w=%v", x.shape, []int{w.cout, w.cin, w.kh, w.kw}))
	}
	oh := outSize(h, w.kh, spec.StrideH, spec.PadH)
	ow := outSize(wd, w.kw, spec.StrideW, spec.PadW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for x=%v w=%v spec=%+v", x.shape, []int{w.cout, w.cin, w.kh, w.kw}, spec))
	}
	dn, dc, doh, dow := dst.Dim4()
	if dn != n || dc != w.cout || doh != oh || dow != ow {
		panic(fmt.Sprintf("tensor: Conv2DInto dst shape %v, want %v", dst.shape, []int{n, w.cout, oh, ow}))
	}
	pool := sc.orDefault()

	// Parallelize across samples when the batch can feed every worker;
	// otherwise run samples serially and let the GEMM spread row blocks.
	// The closure exists only on the parallel branch so the serial path
	// (named function, explicit args) stays allocation-free.
	if workers := parallel.MaxWorkers(); workers > 1 && n >= workers {
		parallel.ForChunked(n, 1, func(lo, hi int) {
			conv2DForwardRange(dst, x, w, spec, pool, false, lo, hi)
		})
	} else {
		conv2DForwardRange(dst, x, w, spec, pool, true, 0, n)
	}
}

// conv2DForwardRange convolves samples [lo, hi) into dst, a group of samples
// per GEMM: out [Cout, group·OHW] = W [Cout,CKK] @ cols [CKK, group·OHW]. A
// direct conv's column matrix is the activation itself (the layout the
// channel-sharded 1×1 convs of the hybrid engine hit,
// efficientnet.Conv1x1Fn); every other shape is lowered by im2col into a
// scratch buffer sized to the group. gemmPar spreads the GEMM over row-block
// workers; callers already fanned out across samples pass false to avoid
// nested parallelism.
func conv2DForwardRange(dst, x *Tensor, w PackedConv, spec ConvSpec, pool *Scratch, gemmPar bool, lo, hi int) {
	_, cin, h, wd := x.Dim4()
	cout, kh, kw := w.cout, w.kh, w.kw
	_, _, oh, ow := dst.Dim4()
	ckk := cin * kh * kw
	ohw := oh * ow
	chw := cin * h * wd
	direct := isDirect(kh, kw, spec)
	group := min(max(1, convFoldCols/ohw), hi-lo)
	var cp *[]float32
	if !direct {
		cp = pool.get(group * ckk * ohw)
	}
	for s := lo; s < hi; s += group {
		cnt := min(group, hi-s)
		cols, colStride := x.data[s*chw:], chw
		if !direct {
			cols, colStride = *cp, ckk*ohw
			for i := 0; i < cnt; i++ {
				im2col(cols[i*colStride:(i+1)*colStride], x.data[(s+i)*chw:(s+i+1)*chw], cin, h, wd, kh, kw, oh, ow, spec)
			}
		}
		gemmBatch(dst.data[s*cout*ohw:], cout*ohw, w.raw, ckk, false,
			cols, ohw, false, colStride, cnt, cout, ohw, ckk, false, pool, gemmPar, w.panels, nil)
	}
	if cp != nil {
		pool.put(cp)
	}
}

// Conv2DBackward computes the gradients of Conv2D with respect to the input
// and the weights given the upstream gradient dy [N,Cout,OH,OW].
func Conv2DBackward(x, w, dy *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	dx = New(x.shape...)
	dw = New(w.shape...)
	conv2DBackward(dx, dw, x, w, dy, spec, nil) // fresh tensors are already zero
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
	pool := sc.orDefault()

	workers := parallel.MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		conv2DBackwardRange(dx, dw.data, x, w, dy, spec, pool, false, 0, n)
		return
	}
	// Deterministic parallel reduction: chunk c accumulates into its own
	// region of one pooled buffer, and the partials merge in chunk order —
	// the sum never depends on which worker finished first.
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk
	wlen := len(w.data)
	pp := pool.getZeroed(nChunks * wlen)
	partials := *pp
	parallel.ForChunked(nChunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			conv2DBackwardRange(dx, partials[c*wlen:(c+1)*wlen], x, w, dy, spec, pool, false, lo, hi)
		}
	})
	for c := 0; c < nChunks; c++ {
		part := partials[c*wlen : (c+1)*wlen]
		for i, v := range part {
			dw.data[i] += v
		}
	}
	pool.put(pp)
}

// conv2DBackwardRange accumulates the weight gradient of samples [lo, hi)
// into dwAcc and, unless dx is nil, writes their (exclusively owned)
// input-gradient slices of dx, group by group as conv2DForwardRange does.
// The weight gradient stays one GEMM per sample, in sample order: it has no
// shared operand, and folding its k dimension across samples would change
// the summation order. A named function so the single-worker path allocates
// nothing.
func conv2DBackwardRange(dx *Tensor, dwAcc []float32, x, w, dy *Tensor, spec ConvSpec, pool *Scratch, gemmPar bool, lo, hi int) {
	_, cin, h, wd := x.Dim4()
	cout, _, kh, kw := w.Dim4()
	_, _, oh, ow := dy.Dim4()
	ckk := cin * kh * kw
	ohw := oh * ow
	chw := cin * h * wd
	direct := isDirect(kh, kw, spec)
	group := min(max(1, convFoldCols/ohw), hi-lo)
	var cp, dcp *[]float32
	if !direct {
		cp = pool.get(group * ckk * ohw)
		if dx != nil {
			dcp = pool.get(group * ckk * ohw)
		}
	}
	for s := lo; s < hi; s += group {
		cnt := min(group, hi-s)
		cols, colStride := x.data[s*chw:], chw
		if !direct {
			cols, colStride = *cp, ckk*ohw
			for i := 0; i < cnt; i++ {
				im2col(cols[i*colStride:(i+1)*colStride], x.data[(s+i)*chw:(s+i+1)*chw], cin, h, wd, kh, kw, oh, ow, spec)
			}
		}
		for i := 0; i < cnt; i++ {
			// dW [Cout,CKK] += dy_s [Cout,OHW] @ cols_sᵀ
			gemm(dwAcc, dy.data[(s+i)*cout*ohw:], ohw, false, cols[i*colStride:], ohw, true,
				cout, ckk, ohw, true, pool, gemmPar)
		}
		if dx == nil {
			continue
		}
		// dcols [CKK, group·OHW] = Wᵀ [CKK,Cout] @ dy [Cout, group·OHW]
		dcols := dx.data[s*chw:]
		if !direct {
			dcols = *dcp
		}
		gemmBatch(dcols, colStride, w.data, ckk, true,
			dy.data[s*cout*ohw:], ohw, false, cout*ohw, cnt, ckk, ohw, cout, false, pool, gemmPar, nil, nil)
		if !direct {
			for i := 0; i < cnt; i++ {
				col2im(dx.data[(s+i)*chw:(s+i+1)*chw], dcols[i*colStride:(i+1)*colStride], cin, h, wd, kh, kw, oh, ow, spec)
			}
		}
	}
	if dcp != nil {
		pool.put(dcp)
	}
	if cp != nil {
		pool.put(cp)
	}
}
