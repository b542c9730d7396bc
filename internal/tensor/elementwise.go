package tensor

import (
	"fmt"
	"math"
)

// Element-wise activation and batch-norm kernels over flat []float32 rows.
// Each exported Into function hands the leading multiple of eight elements
// to the AVX2 assembly (elementwise_amd64.s) when the CPU has it and runs
// the rest — or everything, on other machines — through the Go twin below.
// The twin performs the same IEEE float32 operations in the same order as
// the assembly, so which path an element takes never shows in its bits; see
// the "Element-wise kernels" section of the package comment.

// Constants of the float32 exp behind the sigmoid: Cephes expf's degree-5
// polynomial and two-constant Cody–Waite reduction. The assembly carries the
// same values as bit patterns.
const (
	expHi  float32 = 88.3762626647949 // k = roundeven(expHi·log2e) stays 127
	expLo  float32 = -87.33654475     // −126·ln2: 2^k stays a normal number
	log2e  float32 = 1.44269504088896341
	ln2Hi  float32 = 0.693359375
	ln2Lo  float32 = -2.12194440e-4
	expC0  float32 = 1.9875691500e-4
	expC1  float32 = 1.3981999507e-3
	expC2  float32 = 8.3334519073e-3
	expC3  float32 = 4.1665795894e-2
	expC4  float32 = 1.6666665459e-1
	expC5  float32 = 5.0000001201e-1
	round0 float32 = 12582912 // 1.5·2^23: adding then subtracting it rounds to nearest-even
)

// sigmoidLane is the Go twin of the assembly's 8-lane sigmoid: 1/(1+e^(−x))
// with e^t = 2^k·p(r), t = k·ln2 + r. Every product is wrapped in an
// explicit float32 conversion so no compiler may fuse it into an FMA.
func sigmoidLane(x float32) float32 {
	if x != x {
		return x
	}
	t := -x
	if t > expHi {
		t = expHi
	}
	if t < expLo {
		t = expLo
	}
	k := float32(float32(t*log2e)+round0) - round0
	r := t - float32(k*ln2Hi)
	r -= float32(k * ln2Lo)
	p := float32(expC0*r) + expC1
	p = float32(p*r) + expC2
	p = float32(p*r) + expC3
	p = float32(p*r) + expC4
	p = float32(p*r) + expC5
	e := float32(p*float32(r*r)) + r + 1
	e = float32(e * math.Float32frombits(uint32(int32(k)+127)<<23))
	return 1 / (1 + e)
}

// lenMismatch is the kernels' shape panic, kept out of line so the length
// checks themselves cost a compare and allocate nothing.
func lenMismatch(op string, want int) {
	panic(fmt.Sprintf("tensor: %s operands must all have length %d", op, want))
}

// SigmoidInto writes the logistic function σ(x) = 1/(1+e^(−x)) into dst.
// dst may alias x.
func SigmoidInto(dst, x []float32) {
	if len(dst) != len(x) {
		lenMismatch("SigmoidInto", len(x))
	}
	n := sigmoidVec(dst, x)
	for i := n; i < len(x); i++ {
		dst[i] = sigmoidLane(x[i])
	}
}

// SwishInto writes x·σ(x) into dst and, when sig is non-nil, σ(x) into sig
// (the training forward keeps it for the backward pass; inference passes
// nil). dst may alias x.
func SwishInto(dst, sig, x []float32) {
	if len(dst) != len(x) || (sig != nil && len(sig) != len(x)) {
		lenMismatch("SwishInto", len(x))
	}
	n := swishVec(dst, sig, x)
	for i := n; i < len(x); i++ {
		s := sigmoidLane(x[i])
		if sig != nil {
			sig[i] = s
		}
		dst[i] = float32(x[i] * s)
	}
}

// SwishBackwardInto writes dy·s·(1 + x·(1−s)) into dx, where s = σ(x) is the
// sig slice SwishInto produced.
func SwishBackwardInto(dx, dy, sig, x []float32) {
	if len(dx) != len(x) || len(dy) != len(x) || len(sig) != len(x) {
		lenMismatch("SwishBackwardInto", len(x))
	}
	n := swishBackwardVec(dx, dy, sig, x)
	for i := n; i < len(x); i++ {
		s := sig[i]
		dx[i] = float32(float32(dy[i]*s) * (1 + float32(x[i]*(1-s))))
	}
}

// BNNormalizeInto is batch normalization's training apply over one
// (sample, channel) row: xhat = (x−mean)·invstd and out = gamma·xhat + beta.
func BNNormalizeInto(out, xhat, x []float32, mean, invstd, gamma, beta float32) {
	if len(out) != len(x) || len(xhat) != len(x) {
		lenMismatch("BNNormalizeInto", len(x))
	}
	n := bnNormalizeVec(out, xhat, x, mean, invstd, gamma, beta)
	for i := n; i < len(x); i++ {
		xh := float32((x[i] - mean) * invstd)
		xhat[i] = xh
		out[i] = float32(gamma*xh) + beta
	}
}

// BNInferInto is batch normalization's running-statistics apply over one
// row: out = gamma·(x−mean)·invstd + beta. out may alias x.
func BNInferInto(out, x []float32, mean, invstd, gamma, beta float32) {
	if len(out) != len(x) {
		lenMismatch("BNInferInto", len(x))
	}
	n := bnInferVec(out, x, mean, invstd, gamma, beta)
	for i := n; i < len(x); i++ {
		out[i] = float32(float32(gamma*(x[i]-mean))*invstd) + beta
	}
}

// BNBackwardInto is batch normalization's input gradient over one row:
// dx = k·(dy − m1 − xhat·m2), with k = gamma·invstd and m1, m2 the group
// means of dy and dy·xhat.
func BNBackwardInto(dx, dy, xhat []float32, k, m1, m2 float32) {
	if len(dx) != len(dy) || len(xhat) != len(dy) {
		lenMismatch("BNBackwardInto", len(dy))
	}
	n := bnBackwardVec(dx, dy, xhat, k, m1, m2)
	for i := n; i < len(dy); i++ {
		dx[i] = float32(k * (dy[i] - m1 - float32(xhat[i]*m2)))
	}
}
