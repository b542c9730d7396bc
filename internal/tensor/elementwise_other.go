//go:build !amd64

package tensor

// Off amd64 there is no assembly: every *Vec hook takes zero elements and
// the Go twin in elementwise.go runs the whole row.

// useAVX2 is false off amd64: the Go twins run everything.
const useAVX2 = false

// forceAVX2 is a no-op off amd64; only the Go twin exists.
func forceAVX2(bool) func() { return func() {} }

func sigmoidVec(dst, x []float32) int                             { return 0 }
func swishVec(dst, sig, x []float32) int                          { return 0 }
func swishBackwardVec(dx, dy, sig, x []float32) int               { return 0 }
func bnBackwardVec(dx, dy, xhat []float32, k, m1, m2 float32) int { return 0 }

func bnNormalizeVec(out, xhat, x []float32, mean, invstd, gamma, beta float32) int { return 0 }
func bnInferVec(out, x []float32, mean, invstd, gamma, beta float32) int           { return 0 }
