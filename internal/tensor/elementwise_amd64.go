//go:build amd64

package tensor

// useAVX2 gates the element-wise assembly kernels. They need AVX2 and
// OS-managed YMM state but, unlike the GEMM micro-kernels, no FMA.
var useAVX2 = detectAVX2()

// forceAVX2 overrides the element-wise dispatch for tests (both spellings
// must produce the same bits). Returns a restore func; not safe to call
// while kernels are running on other goroutines.
func forceAVX2(v bool) func() {
	old := useAVX2
	useAVX2 = v && detectAVX2()
	return func() { useAVX2 = old }
}

// The assembly kernels (elementwise_amd64.s) take n > 0, a multiple of 8.

//go:noescape
func sigmoidAVX2(dst, x *float32, n int)

//go:noescape
func swishAVX2(dst, sig, x *float32, n int)

//go:noescape
func swishBackwardAVX2(dx, dy, sig, x *float32, n int)

//go:noescape
func bnNormalizeAVX2(out, xhat, x *float32, n int, mean, invstd, gamma, beta float32)

//go:noescape
func bnInferAVX2(out, x *float32, n int, mean, invstd, gamma, beta float32)

//go:noescape
func bnBackwardAVX2(dx, dy, xhat *float32, n int, k, m1, m2 float32)

// vecLen is how many leading elements of an n-long row the assembly takes:
// the largest multiple of 8, or none without AVX2.
func vecLen(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}

func sigmoidVec(dst, x []float32) int {
	n := vecLen(len(x))
	if n > 0 {
		sigmoidAVX2(&dst[0], &x[0], n)
	}
	return n
}

func swishVec(dst, sig, x []float32) int {
	n := vecLen(len(x))
	if n > 0 {
		var sp *float32
		if sig != nil {
			sp = &sig[0]
		}
		swishAVX2(&dst[0], sp, &x[0], n)
	}
	return n
}

func swishBackwardVec(dx, dy, sig, x []float32) int {
	n := vecLen(len(x))
	if n > 0 {
		swishBackwardAVX2(&dx[0], &dy[0], &sig[0], &x[0], n)
	}
	return n
}

func bnNormalizeVec(out, xhat, x []float32, mean, invstd, gamma, beta float32) int {
	n := vecLen(len(x))
	if n > 0 {
		bnNormalizeAVX2(&out[0], &xhat[0], &x[0], n, mean, invstd, gamma, beta)
	}
	return n
}

func bnInferVec(out, x []float32, mean, invstd, gamma, beta float32) int {
	n := vecLen(len(x))
	if n > 0 {
		bnInferAVX2(&out[0], &x[0], n, mean, invstd, gamma, beta)
	}
	return n
}

func bnBackwardVec(dx, dy, xhat []float32, k, m1, m2 float32) int {
	n := vecLen(len(dy))
	if n > 0 {
		bnBackwardAVX2(&dx[0], &dy[0], &xhat[0], n, k, m1, m2)
	}
	return n
}
