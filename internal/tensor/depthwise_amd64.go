//go:build amd64

package tensor

import (
	"unsafe"

	"effnetscale/internal/parallel"
)

// The lane kernels (depthwise_amd64.s) take n > 0 and tiles > 0.

//go:noescape
func depthwiseTableAVX2(out, x, w *float32, tab *int32, n, wd, kw int)

//go:noescape
func transpose8AVX2(dst *float32, dstRow, dstStep int, src *float32, srcRow, srcStep, tiles int)

// depthwiseLanes runs the forward with eight channels of one sample in the
// eight lanes of a YMM register, when the host has AVX2, and reports whether
// it did. The clipped windows do not depend on the channel, so one table
// serves every (sample, 8-channel block).
func depthwiseLanes(dst, x *Tensor, w PackedDepthwise, g dwGeom, pool *Scratch) bool {
	if !useAVX2 {
		return false
	}
	n, c := x.shape[0], x.shape[1]
	hw, ohw, taps := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	nt, nl, work := 4*ohw, 0, 8*(hw+ohw+max(hw, ohw))
	if w.lanes == nil {
		nl = (c + 7) / 8 * 8 * taps
	}
	// One borrowed buffer holds the table, the lanes packed for this call and
	// the blocks' working space; only a fan-out borrows more, one per chunk.
	// The closure exists only on that branch, so one worker allocates nothing.
	bp := pool.get(nt + nl + work)
	defer pool.put(bp)
	tab := unsafe.Slice((*int32)(unsafe.Pointer(&(*bp)[0])), nt)
	depthwiseTable(tab, g)
	lanes := w.lanes
	if lanes == nil {
		lanes = (*bp)[nt : nt+nl]
		packLanes(lanes, w.raw, c, taps)
	}
	// A chunk is at least 32 blocks, the 256 planes below which the Go loop's
	// parallel.For runs inline too.
	if blocks := n * ((c + 7) / 8); parallel.MaxWorkers() > 1 {
		parallel.ForChunked(blocks, 32, func(lo, hi int) {
			wp := pool.get(work)
			depthwiseBlocks(dst, x, lanes, tab, g, *wp, lo, hi)
			pool.put(wp)
		})
	} else {
		depthwiseBlocks(dst, x, lanes, tab, g, (*bp)[nt+nl:], 0, blocks)
	}
	return true
}

// depthwiseTable lists each output's window as depthwiseForwardOne clips it:
// {first input position, first tap, rows, columns}, no rows for a window
// wholly in the padding (its sum is the +0 the accumulator starts at).
func depthwiseTable(tab []int32, g dwGeom) {
	for o := range g.oh * g.ow {
		iy0, ix0 := o/g.ow*g.strideH-g.padH, o%g.ow*g.strideW-g.padW
		iLo, iHi := clipTaps(iy0, g.kh, g.h)
		jLo, jHi := clipTaps(ix0, g.kw, g.w)
		e := tab[4*o : 4*o+4 : 4*o+4]
		e[0], e[1], e[2], e[3] = int32((iy0+iLo)*g.w+ix0+jLo), int32(iLo*g.kw+jLo), int32(iHi-iLo), int32(jHi-jLo)
		if iLo >= iHi || jLo >= jHi {
			e[2] = 0
		}
	}
}

// depthwiseBlocks convolves (sample, 8-channel block) items [lo, hi), block
// b of sample s being item s·⌈C/8⌉+b, in work (8·(H·W + OH·OW +
// max(H·W, OH·OW)) floats): the block is transposed to [H·W][8], walked
// through the table by one assembly call, and transposed back. A block of
// C mod 8 channels is staged through pad with zero planes up to eight; its
// spare lanes compute zeros that are never stored.
func depthwiseBlocks(dst, x *Tensor, lanes []float32, tab []int32, g dwGeom, work []float32, lo, hi int) {
	c := x.shape[1]
	hw, ohw, taps := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	xb, ob, pad := work[:8*hw], work[8*hw:8*(hw+ohw)], work[8*(hw+ohw):]
	for it := lo; it < hi; it++ {
		s, c0 := it/((c+7)/8), it%((c+7)/8)*8
		cn := min(8, c-c0)
		xs, ds := x.data[(s*c+c0)*hw:(s*c+c0+cn)*hw], dst.data[(s*c+c0)*ohw:(s*c+c0+cn)*ohw]
		if cn < 8 {
			copy(pad, xs)
			clear(pad[cn*hw : 8*hw])
			xs = pad
		}
		toLanes(xb, xs, hw)
		depthwiseTableAVX2(&ob[0], &xb[0], &lanes[c0*taps], &tab[0], ohw, g.w, g.kw)
		if cn < 8 {
			fromLanes(pad, ob, ohw)
			copy(ds, pad)
		} else {
			fromLanes(ds, ob, ohw)
		}
	}
}

// toLanes transposes eight planes of n floats (src, plane after plane) into
// dst [n][8].
func toLanes(dst, src []float32, n int) {
	if n >= 8 {
		transpose8AVX2(&dst[0], 8, 64, &src[0], n, 8, n/8)
	}
	for p := n &^ 7; p < n; p++ {
		for l := range 8 {
			dst[p*8+l] = src[l*n+p]
		}
	}
}

// fromLanes is toLanes' inverse.
func fromLanes(dst, src []float32, n int) {
	if n >= 8 {
		transpose8AVX2(&dst[0], n, 8, &src[0], 8, 64, n/8)
	}
	for p := n &^ 7; p < n; p++ {
		for l := range 8 {
			dst[l*n+p] = src[p*8+l]
		}
	}
}
