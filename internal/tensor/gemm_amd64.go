//go:build amd64

package tensor

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled SIMD state mask).
func xgetbv() (eax, edx uint32)

// microKernel4x16FMA accumulates a full 4×16 output tile over kl packed
// k-steps using AVX2 FMA: dst[i*ldc+j] += sum_k ap[k*4+i]*bp[k*16+j].
// Implemented in gemm_amd64.s; only called when useFMA is true.
//
//go:noescape
func microKernel4x16FMA(dst *float32, ldc int64, ap, bp *float32, kl int64)

// microKernel4x8FMA handles the first 8 columns of a packed 16-wide B panel
// (column-tail tiles with 8 <= tc < 16).
//
//go:noescape
func microKernel4x8FMA(dst *float32, ldc int64, ap, bp *float32, kl int64)

// microKernel4x4FMA handles 4 columns of a packed 16-wide B panel
// (column-tail tiles with 4 <= tc-offset < 8).
//
//go:noescape
func microKernel4x4FMA(dst *float32, ldc int64, ap, bp *float32, kl int64)

// useFMA gates the assembly micro-kernel. Requires AVX2 and FMA support in
// the CPU plus OS-managed YMM state (OSXSAVE + XCR0 bits 1-2).
var useFMA = detectFMA()

// forceFMA overrides the kernel dispatch for tests (both paths must satisfy
// the oracle suite). Returns a restore func; not safe to call while kernels
// are running on other goroutines.
func forceFMA(v bool) func() {
	old := useFMA
	useFMA = v && detectFMA()
	return func() { useFMA = old }
}

// detectAVX2 reports AVX2 support in the CPU plus OS-managed YMM state
// (OSXSAVE + XCR0 bits 1-2) — all the element-wise kernels need.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	if c1&osxsaveBit == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 { // XMM and YMM state saved by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

func detectFMA() bool {
	if !detectAVX2() {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fmaBit = 1 << 12
	return c1&fmaBit != 0
}
