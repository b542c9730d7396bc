package tensor

import (
	"fmt"

	"effnetscale/internal/parallel"
)

// The GEMM kernel is cache-blocked in the GotoBLAS style: the k dimension is
// cut into slabs of at most gemmKC, the B slab is packed once into
// column-panel layout (gemmNR-wide, k-major), and each gemmMC-row block of A
// is packed into row panels (gemmMR-high, k-major) that a register-tiled
// gemmMR×gemmNR micro-kernel consumes. Packing zero-pads ragged tile tails,
// so the micro-kernel itself is branch-free; partial tiles are masked only at
// write-back. Full interior tiles dispatch to an AVX2+FMA assembly kernel on
// amd64 machines that support it (see gemm_amd64.s); edge tiles and other
// architectures run the pure-Go kernel. For a fixed output element the
// products accumulate in ascending-k order — the same order as a naive
// triple loop — so the Go path is bit-identical to the float32 reference
// oracle whenever k fits one slab (k <= gemmKC); the FMA path keeps the same
// order but fuses each multiply-add (one rounding instead of two), a
// documented ULP-level difference bounded by the oracle suite's tolerance.
const (
	gemmMR = 4   // micro-kernel rows (register tile height)
	gemmNR = 16  // micro-kernel cols (two YMM vectors per row)
	gemmKC = 256 // k-slab: one packed A panel is gemmMR*gemmKC*4 B = 4 KiB
	gemmMC = 128 // rows of A packed per block (gemmMC*gemmKC*4 B ≈ L2-sized)
)

// MatMul returns a @ b for a of shape [M,K] and b of shape [K,N].
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemm(out.data, a.data, k, false, b.data, n, false, m, n, k, false, nil, true)
	return out
}

// MatMulInto computes dst = a @ b (or dst += a @ b when accumulate is true)
// reusing dst's storage. dst must have shape [M,N].
func MatMulInto(dst, a, b *Tensor, accumulate bool) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	gemm(dst.data, a.data, k, false, b.data, n, false, m, n, k, accumulate, nil, true)
}

// MatMulTA returns aᵀ @ b for a of shape [K,M] and b of shape [K,N];
// the result has shape [M,N]. Used by dense-layer weight gradients.
func MatMulTA(a, b *Tensor) *Tensor {
	out := New(a.shape[1], b.shape[1])
	MatMulTAInto(out, a, b)
	return out
}

// MatMulTAInto writes aᵀ @ b into dst, which must have shape [M,N].
func MatMulTAInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	gemm(dst.data, a.data, m, true, b.data, n, false, m, n, k, false, nil, true)
}

// MatMulTB returns a @ bᵀ for a of shape [M,K] and b of shape [N,K];
// the result has shape [M,N]. Used by dense-layer input gradients.
func MatMulTB(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[0])
	MatMulTBInto(out, a, b)
	return out
}

// MatMulTBInto writes a @ bᵀ into dst, which must have shape [M,N].
func MatMulTBInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	gemm(dst.data, a.data, k, false, b.data, k, true, m, n, k, false, nil, true)
}

// PackedDense is a dense layer's weights W [In, Out], the B operand of
// x @ W, packed once into the column panels every MatMul over W would pack
// it into: the frozen inference plan's form of a weight that no longer
// changes.
type PackedDense struct {
	in, out     int
	raw, panels []float32
}

// PackedDenseLen returns the floats PackDense needs for w [In, Out].
func PackedDenseLen(w *Tensor) int { return packedLen(w.shape[1], gemmNR, w.shape[0]) }

// PackDense packs w [In, Out] into buf, which must hold PackedDenseLen(w)
// floats; the result views buf. Element-wise changes to buf afterwards (bf16
// rounding) act as if made to w before packing: the padding is zeros. A nil
// buf packs nothing: the operand reads w, and every call packs it as MatMul
// does.
func PackDense(buf []float32, w *Tensor) PackedDense {
	if w.Rank() == 2 && buf == nil {
		return PackedDense{in: w.shape[0], out: w.shape[1], raw: w.data}
	}
	if w.Rank() != 2 || len(buf) != PackedDenseLen(w) {
		panic(fmt.Sprintf("tensor: PackDense of %v into %d floats, want rank 2 and %d", w.shape, len(buf), PackedDenseLen(w)))
	}
	k, n := w.shape[0], w.shape[1]
	npad := packedLen(n, gemmNR, 1)
	for p0 := 0; p0 < k; p0 += gemmKC {
		packB(buf[p0*npad:], w.data, n, false, 0, n, n, p0, min(k-p0, gemmKC))
	}
	return PackedDense{in: k, out: n, panels: buf}
}

// MatMulPackedInto writes a @ W into dst [M, Out] for a [M, In]: the bits of
// MatMulInto(dst, a, W, false), without packing W.
func MatMulPackedInto(dst, a *Tensor, w PackedDense) {
	m, k := a.shape[0], a.shape[1]
	if a.Rank() != 2 || k != w.in || dst.Len() != m*w.out {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shape mismatch dst=%v a=%v w=[%d %d]", dst.shape, a.shape, w.in, w.out))
	}
	gemmBatch(dst.data, 0, a.data, k, false, w.raw, w.out, false, 0, 1, m, w.out, k, false, nil, true, nil, w.panels)
}

// packedLen is the length of a rows×k operand packed whole, its rows padded
// to a multiple of the panel height (gemmMR for A, gemmNR for B's columns).
func packedLen(rows, panel, k int) int { return (rows + panel - 1) / panel * panel * k }

// gemm computes dst[m,n] (+)= op(A) @ op(B), where op transposes when the
// corresponding flag is set. lda/ldb are the leading (row) strides of the
// *stored* layouts: element A[i,p] lives at a[i*lda+p] (or a[p*lda+i] when
// at), and B[p,j] at b[p*ldb+j] (or b[j*ldb+p] when bt). dst is row-major
// [m,n] with stride n. It is gemmBatch over a single sample.
func gemm(dst []float32, a []float32, lda int, at bool, b []float32, ldb int, bt bool, m, n, k int, accumulate bool, sc *Scratch, par bool) {
	gemmBatch(dst, 0, a, lda, at, b, ldb, bt, 0, 1, m, n, k, accumulate, sc, par, nil, nil)
}

// gemmBatch computes dst_s[m,n] (+)= op(A) @ op(B_s) for count samples that
// share the A operand (a convolution's weights): B_s starts at b[s*bStride]
// and dst_s at dst[s*dStride], each laid out as gemm describes. The batch is
// folded into the column dimension: the product runs as one
// [m,k] @ [k,count*n] GEMM whose column s*n+j is column j of sample s. A's
// panels are therefore packed once per (k-slab, row block) for the whole
// batch, and samples narrower than gemmNR share micro-tiles instead of each
// zero-padding one. Every output element is still one ascending-k chain
// through the same micro-kernels, so its bits do not depend on count.
// Temporaries come from sc (nil = the default pool). When par is set the row
// blocks of each k-slab run on parallel workers; callers already inside a
// parallel region pass par=false to avoid nested fan-out. A non-nil apk (bpk)
// is op(A) (op(B)) packed whole by PackConv (PackDense), which then stands in
// for a (b): each slab's panels are read where the per-call packing would
// have written them.
func gemmBatch(dst []float32, dStride int, a []float32, lda int, at bool, b []float32, ldb int, bt bool, bStride, count, m, n, k int, accumulate bool, sc *Scratch, par bool, apk, bpk []float32) {
	if m <= 0 || n <= 0 || count <= 0 {
		return
	}
	pool := sc.orDefault()
	if !accumulate {
		for s := 0; s < count; s++ {
			clear(dst[s*dStride : s*dStride+m*n])
		}
	}
	if k <= 0 {
		return
	}
	cols := count * n
	npad := packedLen(cols, gemmNR, 1)
	var bpPtr *[]float32
	if bpk == nil {
		bpPtr = pool.get(min(k, gemmKC) * npad)
	}
	for p0 := 0; p0 < k; p0 += gemmKC {
		kl := min(k-p0, gemmKC)
		var bp []float32
		if bpk != nil {
			bp = bpk[p0*npad:]
		} else {
			bp = *bpPtr
			packB(bp, b, ldb, bt, bStride, n, cols, p0, kl)
		}
		nBlocks := (m + gemmMC - 1) / gemmMC
		if par && nBlocks > 1 && parallel.MaxWorkers() > 1 {
			// The closure is evaluated only on this branch, so the serial
			// path below stays allocation-free.
			parallel.ForChunked(nBlocks, 1, func(blo, bhi int) {
				gemmRowBlocks(dst, dStride, a, lda, at, apk, bp, pool, m, n, cols, p0, kl, blo, bhi)
			})
		} else {
			gemmRowBlocks(dst, dStride, a, lda, at, apk, bp, pool, m, n, cols, p0, kl, 0, nBlocks)
		}
	}
	if bpPtr != nil {
		pool.put(bpPtr)
	}
}

// gemmRowBlocks processes row blocks [blo, bhi) of one k-slab: pack each
// gemmMC-row block of op(A) (or find it in apk, packed whole) and sweep its
// micro-tiles against the packed B slab bp, whose cols columns are the
// batch's samples side by side, n each. A named function (not a closure) so
// the serial gemm path performs no per-call allocations.
func gemmRowBlocks(dst []float32, dStride int, a []float32, lda int, at bool, apk, bp []float32, pool *Scratch, m, n, cols, p0, kl, blo, bhi int) {
	var apPtr *[]float32
	if apk == nil {
		apPtr = pool.get(gemmMC * gemmKC)
	}
	for bi := blo; bi < bhi; bi++ {
		i0 := bi * gemmMC
		rows := min(m-i0, gemmMC)
		var ap []float32
		if apk != nil {
			ap = apk[p0*packedLen(m, gemmMR, 1)+i0*kl:]
		} else {
			ap = *apPtr
			packA(ap, a, lda, at, i0, rows, p0, kl)
		}
		s, j := 0, 0 // sample, and column within it, of the column panel's first column
		for jr := 0; jr < cols; jr += gemmNR {
			tc := min(cols-jr, gemmNR)
			bpanel := bp[(jr/gemmNR)*kl*gemmNR:]
			for ir := 0; ir < rows; ir += gemmMR {
				tr := min(rows-ir, gemmMR)
				apanel := ap[(ir/gemmMR)*kl*gemmMR:]
				if j+tc <= n {
					// The tile sits inside one sample: accumulate in place.
					microTile(dst[s*dStride+(i0+ir)*n+j:], n, apanel, bpanel, kl, tr, tc)
					continue
				}
				// The tile spans samples: compute it on the stack (from
				// zero, as the micro-kernels' own ragged-edge path does)
				// and add each column into its sample.
				var tile [gemmMR * gemmNR]float32
				microTile(tile[:], gemmNR, apanel, bpanel, kl, tr, tc)
				for c, cs, cj := 0, s, j; c < tc; c++ {
					d := dst[cs*dStride+(i0+ir)*n+cj:]
					for r := 0; r < tr; r++ {
						d[r*n] += tile[r*gemmNR+c]
					}
					if cj++; cj == n {
						cs, cj = cs+1, 0
					}
				}
			}
			for j += tc; j >= n; j -= n {
				s++
			}
		}
	}
	if apPtr != nil {
		pool.put(apPtr)
	}
}

// microTile computes one (possibly ragged) output tile. With FMA support,
// every tile — full or ragged — runs the same assembly kernels so a given
// output element accumulates identically regardless of its tile position
// (zero-padded panel rows/columns compute into a discarded stack buffer).
// That keeps results independent of m/n raggedness: batch-1 and batch-N
// inference produce bitwise-equal logits. Without FMA the portable Go
// kernel has the same property.
func microTile(dst []float32, ldc int, ap, bp []float32, kl, tr, tc int) {
	if !useFMA {
		microKernel4x16(dst, ldc, ap, bp, kl, tr, tc)
		return
	}
	if tr == gemmMR {
		if tc == gemmNR {
			microKernel4x16FMA(&dst[0], int64(ldc), &ap[0], &bp[0], int64(kl))
			return
		}
		off := 0
		if tc >= 8 {
			microKernel4x8FMA(&dst[0], int64(ldc), &ap[0], &bp[0], int64(kl))
			off = 8
		}
		if tc-off >= 4 {
			microKernel4x4FMA(&dst[off], int64(ldc), &ap[0], &bp[off], int64(kl))
			off += 4
		}
		if off < tc {
			var tile [gemmMR * 4]float32
			microKernel4x4FMA(&tile[0], 4, &ap[0], &bp[off], int64(kl))
			for r := 0; r < tr; r++ {
				for c := 0; c < tc-off; c++ {
					dst[r*ldc+off+c] += tile[r*4+c]
				}
			}
		}
		return
	}
	// Short row tail: compute the full-height tile into a stack buffer (the
	// packed A panel is zero-padded past tr) and add back only live rows.
	var tile [gemmMR * gemmNR]float32
	for jc := 0; jc < tc; jc += 4 {
		microKernel4x4FMA(&tile[jc/4*gemmMR*4], 4, &ap[0], &bp[jc], int64(kl))
	}
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			dst[r*ldc+c] += tile[c/4*gemmMR*4+r*4+c%4]
		}
	}
}

// microKernel4x16 is the portable micro-kernel: a 4×16 output tile computed
// as four strided 4×4 sub-tiles over the 16-wide packed B panel. tr/tc mask
// the write-back for ragged edge tiles.
func microKernel4x16(dst []float32, ldc int, ap, bp []float32, kl, tr, tc int) {
	for s := 0; s*4 < tc; s++ {
		cw := tc - s*4
		if cw > 4 {
			cw = 4
		}
		microTile4x4(dst[s*4:], ldc, ap, bp[s*4:], kl, tr, cw)
	}
}

// microTile4x4 accumulates a 4×4 output tile over kl packed k-steps: ap
// holds gemmMR row values per k (zero-padded), bp gemmNR column values per k
// of which this tile consumes four. The 16 accumulators live in registers
// across the k loop; tr/tc mask the write-back. dst is the tile's top-left
// element, rows strided by ldc.
func microTile4x4(dst []float32, ldc int, ap, bp []float32, kl, tr, tc int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	for kk := 0; kk < kl; kk++ {
		av := ap[kk*4 : kk*4+4 : kk*4+4]
		bv := bp[kk*gemmNR : kk*gemmNR+4 : kk*gemmNR+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	if tr == 4 && tc == 4 {
		d0 := dst[0:4:4]
		d1 := dst[ldc : ldc+4 : ldc+4]
		d2 := dst[2*ldc : 2*ldc+4 : 2*ldc+4]
		d3 := dst[3*ldc : 3*ldc+4 : 3*ldc+4]
		d0[0] += c00
		d0[1] += c01
		d0[2] += c02
		d0[3] += c03
		d1[0] += c10
		d1[1] += c11
		d1[2] += c12
		d1[3] += c13
		d2[0] += c20
		d2[1] += c21
		d2[2] += c22
		d2[3] += c23
		d3[0] += c30
		d3[1] += c31
		d3[2] += c32
		d3[3] += c33
		return
	}
	ct := [16]float32{
		c00, c01, c02, c03,
		c10, c11, c12, c13,
		c20, c21, c22, c23,
		c30, c31, c32, c33,
	}
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			dst[r*ldc+c] += ct[r*4+c]
		}
	}
}

// packA packs rows [i0, i0+rows) of op(A), k-slab [p0, p0+kl), into
// gemmMR-high k-major panels: panel q holds rows i0+q*4…, laid out as 4
// consecutive row values per k step. Rows past the edge pack as zeros, so
// the micro-kernel needs no row masking.
func packA(dst, a []float32, lda int, trans bool, i0, rows, p0, kl int) {
	for q := 0; q*gemmMR < rows; q++ {
		panel := dst[q*kl*gemmMR : (q+1)*kl*gemmMR]
		r0 := i0 + q*gemmMR
		pr := rows - q*gemmMR
		if pr >= gemmMR && !trans {
			// Full panel, A row-major: four streaming reads.
			s0 := a[(r0+0)*lda+p0 : (r0+0)*lda+p0+kl]
			s1 := a[(r0+1)*lda+p0 : (r0+1)*lda+p0+kl]
			s2 := a[(r0+2)*lda+p0 : (r0+2)*lda+p0+kl]
			s3 := a[(r0+3)*lda+p0 : (r0+3)*lda+p0+kl]
			for kk := 0; kk < kl; kk++ {
				d := panel[kk*4 : kk*4+4 : kk*4+4]
				d[0] = s0[kk]
				d[1] = s1[kk]
				d[2] = s2[kk]
				d[3] = s3[kk]
			}
			continue
		}
		if trans {
			// Aᵀ stored [k, m]: each k step's panel rows are contiguous.
			for kk := 0; kk < kl; kk++ {
				src := a[(p0+kk)*lda+r0:]
				d := panel[kk*4 : kk*4+4 : kk*4+4]
				if pr >= gemmMR {
					s := src[0:4:4]
					d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				} else {
					for r := 0; r < gemmMR; r++ {
						if r < pr {
							d[r] = src[r]
						} else {
							d[r] = 0
						}
					}
				}
			}
			continue
		}
		// Ragged row tail, row-major: copy valid rows, zero the rest.
		for kk := 0; kk < kl; kk++ {
			d := panel[kk*4 : kk*4+4 : kk*4+4]
			for r := 0; r < gemmMR; r++ {
				if r < pr {
					d[r] = a[(r0+r)*lda+p0+kk]
				} else {
					d[r] = 0
				}
			}
		}
	}
}

// packB packs the k-slab [p0, p0+kl) of the batch's cols = count*n columns
// (column s*n+j is column j of op(B_s), B_s at b[s*bStride]) into gemmNR-wide
// k-major column panels, zero-padding the ragged tail. A panel is filled run
// by run, a run being the columns it takes from one sample, so panels cross
// sample boundaries whenever n is not a multiple of gemmNR.
func packB(dst, b []float32, ldb int, trans bool, bStride, n, cols, p0, kl int) {
	s, j := 0, 0 // sample and column within it of the next column to pack
	for q := 0; q*gemmNR < cols; q++ {
		panel := dst[q*kl*gemmNR : (q+1)*kl*gemmNR]
		pc := min(cols-q*gemmNR, gemmNR)
		if pc < gemmNR {
			clear(panel)
		}
		for c := 0; c < pc; {
			run := min(pc-c, n-j)
			if run == gemmNR && !trans {
				// B row-major [k, n]: each k step's panel cols are contiguous.
				src := b[s*bStride+p0*ldb+j:]
				for kk := 0; kk < kl; kk++ {
					// Through a local: a direct array-to-array assignment
					// may alias and compiles to a memmove call.
					row := *(*[gemmNR]float32)(src[kk*ldb:])
					*(*[gemmNR]float32)(panel[kk*gemmNR:]) = row
				}
			} else {
				// Column by column: a column's k steps are ldb apart, and
				// adjacent columns 1 apart, unless B is stored transposed
				// ([n, k]), which swaps the two.
				o, kStep, cStep := s*bStride+p0*ldb+j, ldb, 1
				if trans {
					o, kStep, cStep = s*bStride+j*ldb+p0, 1, ldb
				}
				for r := 0; r < run; r++ {
					col := b[o+r*cStep:]
					for kk := 0; kk < kl; kk++ {
						panel[kk*gemmNR+c+r] = col[kk*kStep]
					}
				}
			}
			c += run
			if j += run; j == n {
				s, j = s+1, 0
			}
		}
	}
}
