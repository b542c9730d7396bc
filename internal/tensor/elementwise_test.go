package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// ewKernels runs every element-wise kernel once over inputs built from src
// and returns the outputs, so tests can compare whole dispatch paths.
// Scalars come from the head of src so fuzzed value classes reach them too.
func ewKernels(src []float32) [][]float32 {
	n := len(src)
	x := src
	y := make([]float32, n) // second operand: src reversed
	for i := range y {
		y[i] = src[n-1-i]
	}
	scalar := func(i int) float32 {
		if n == 0 {
			return 0.5
		}
		return src[i%n]
	}
	out := func() []float32 { return make([]float32, n) }

	sigm, swish, sig, swishNoSig, dswish := out(), out(), out(), out(), out()
	SigmoidInto(sigm, x)
	SwishInto(swish, sig, x)
	SwishInto(swishNoSig, nil, x)
	SwishBackwardInto(dswish, y, sig, x)

	bnOut, bnXhat, bnInf, bnDx := out(), out(), out(), out()
	BNNormalizeInto(bnOut, bnXhat, x, scalar(0), scalar(1), scalar(2), scalar(3))
	BNInferInto(bnInf, x, scalar(0), scalar(1), scalar(2), scalar(3))
	BNBackwardInto(bnDx, y, x, scalar(0), scalar(1), scalar(2))
	return [][]float32{sigm, swish, sig, swishNoSig, dswish, bnOut, bnXhat, bnInf, bnDx}
}

var ewKernelNames = []string{"sigmoid", "swish", "swish.sig", "swish(nil sig)", "swishBackward",
	"bnNormalize.out", "bnNormalize.xhat", "bnInfer", "bnBackward"}

// sameBits is bitwise equality, except that any NaN equals any NaN: which
// payload an operation on two different NaNs returns depends on operand
// order, which neither the Go compiler nor other architectures pin.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// ewClasses are the value classes the fuzz target draws from.
var ewClasses = []func(*rand.Rand) float32{
	func(r *rand.Rand) float32 { return float32(r.NormFloat64() * 6) },
	func(r *rand.Rand) float32 { return float32(r.NormFloat64() * 0.01) },
	func(r *rand.Rand) float32 { return 0 },
	func(r *rand.Rand) float32 { return float32(math.Copysign(0, -1)) },
	func(r *rand.Rand) float32 { return math.Float32frombits(uint32(1 + r.Intn(1<<22))) },             // denormal
	func(r *rand.Rand) float32 { return -math.Float32frombits(uint32(1 + r.Intn(1<<22))) },            // −denormal
	func(r *rand.Rand) float32 { return float32(88.4 + r.NormFloat64()*0.6) },                         // exp clamp, high side
	func(r *rand.Rand) float32 { return float32(-87.4 + r.NormFloat64()*0.6) },                        // exp clamp, low side
	func(r *rand.Rand) float32 { return float32((r.Float64() - 0.5) * 250) },                          // far past both clamps
	func(r *rand.Rand) float32 { return float32(math.Inf(1)) },                                        // +Inf
	func(r *rand.Rand) float32 { return float32(math.Inf(-1)) },                                       // −Inf
	func(r *rand.Rand) float32 { return float32(math.NaN()) },                                         // quiet NaN
	func(r *rand.Rand) float32 { return math.Float32frombits(0x7F800001 + uint32(r.Intn(0x3FFFFF))) }, // signalling NaN
	func(r *rand.Rand) float32 { return math.Float32frombits(r.Uint32()) },                            // any bit pattern
}

// FuzzElementwiseKernels pins "one algorithm, two spellings, identical
// bits": every kernel, run once through the assembly (plus Go tail) and once
// entirely through the Go twin, at fuzzed lengths 0-67, slice offsets 0-7
// and value classes, must agree bit for bit on every element.
func FuzzElementwiseKernels(f *testing.F) {
	f.Add(uint8(67), uint8(3), uint16(0xFFFF), int64(1))
	f.Add(uint8(8), uint8(0), uint16(1), int64(2))
	f.Add(uint8(0), uint8(0), uint16(1), int64(3))
	f.Fuzz(func(t *testing.T, nRaw, offRaw uint8, classMask uint16, seed int64) {
		n, off := int(nRaw)%68, int(offRaw)%8
		rng := rand.New(rand.NewSource(seed))
		var classes []func(*rand.Rand) float32
		for i, c := range ewClasses {
			if classMask&(1<<i) != 0 {
				classes = append(classes, c)
			}
		}
		if len(classes) == 0 {
			classes = ewClasses[:1]
		}
		// The offset moves the slice off 32-byte alignment.
		src := make([]float32, off+n)[off:]
		for i := range src {
			src[i] = classes[rng.Intn(len(classes))](rng)
		}

		restore := forceAVX2(false)
		want := ewKernels(src)
		restore()
		got := ewKernels(src)
		for k := range want {
			for i := range want[k] {
				if !sameBits(got[k][i], want[k][i]) {
					t.Fatalf("%s[%d] of %d (x=%g): asm %g (%#08x), Go twin %g (%#08x)", ewKernelNames[k], i, n,
						src[i], got[k][i], math.Float32bits(got[k][i]), want[k][i], math.Float32bits(want[k][i]))
				}
			}
		}
	})
}

// bothElementwisePaths runs body under the assembly dispatch and under the
// forced Go twin.
func bothElementwisePaths(t *testing.T, body func(t *testing.T)) {
	t.Run("avx2", body)
	t.Run("portable", func(t *testing.T) {
		defer forceAVX2(false)()
		body(t)
	})
}

// ulpsApart measures |got−want| in units of want's float32 spacing.
func ulpsApart(got float32, want float64) float64 {
	w := float32(want)
	ulp := float64(math.Nextafter32(float32(math.Abs(float64(w))), float32(math.Inf(1)))) - math.Abs(float64(w))
	return math.Abs(float64(got)-want) / ulp
}

// TestSigmoidSwishOracle checks σ and swish against float64 references over
// a dense sweep of [−90, 90]; both must stay within 3 float32 ULP. Two
// stretches of the far negative tail are bounded differently, because the
// format — not the algorithm — limits them there:
//   - x < −87.33: σ(x) < 2^−126 is a denormal, still within 3 (denormal) ULP,
//     but x·σ inherits its fixed 2^−149 spacing, so swish is bounded by that;
//   - x < −88.37: the exp clamp has saturated σ at 1/(1+e^88.376) ≈ 4.2e−39
//     while the true value keeps falling; the error is bounded absolutely.
func TestSigmoidSwishOracle(t *testing.T) {
	const (
		steps       = 720_001 // 2.5e-4 spacing
		sigNormal   = -87.33
		clampFloor  = -88.37
		denormalULP = 0x1p-149
	)
	x := make([]float32, steps)
	for i := range x {
		x[i] = float32(-90 + 180*float64(i)/float64(steps-1))
	}
	bothElementwisePaths(t, func(t *testing.T) {
		sig, sw := make([]float32, steps), make([]float32, steps)
		SwishInto(sw, sig, x)
		var worstSig, worstSw float64
		for i, xv := range x {
			wantSig := 1 / (1 + math.Exp(-float64(xv)))
			wantSw := float64(xv) * wantSig
			if i > 0 && sig[i] < sig[i-1] {
				t.Fatalf("σ not monotone: σ(%g)=%g < σ(%g)=%g", xv, sig[i], x[i-1], sig[i-1])
			}
			if float64(xv) < clampFloor {
				if d := math.Abs(float64(sig[i]) - wantSig); d > 4.3e-39 {
					t.Fatalf("σ(%g) = %g, want %g: saturated tail off by %g", xv, sig[i], wantSig, d)
				}
				continue
			}
			worstSig = math.Max(worstSig, ulpsApart(sig[i], wantSig))
			if float64(xv) < sigNormal {
				if d := math.Abs(float64(sw[i]) - wantSw); d > 4*denormalULP*math.Abs(float64(xv)) {
					t.Fatalf("swish(%g) = %g, want %g: off by %g with σ denormal", xv, sw[i], wantSw, d)
				}
				continue
			}
			worstSw = math.Max(worstSw, ulpsApart(sw[i], wantSw))
		}
		t.Logf("max error: σ %.2f ULP, swish %.2f ULP", worstSig, worstSw)
		if worstSig > 3 || worstSw > 3 {
			t.Fatalf("max error σ %.2f ULP, swish %.2f ULP; want ≤ 3", worstSig, worstSw)
		}
		// Symmetry: σ(x) + σ(−x) = 1.
		neg := make([]float32, steps)
		for i := range neg {
			neg[i] = -x[i]
		}
		SigmoidInto(neg, neg)
		for i := range x {
			if d := math.Abs(float64(sig[i]) + float64(neg[i]) - 1); d > 1e-6 {
				t.Fatalf("σ(%g)+σ(%g) = 1%+g", x[i], -x[i], d)
			}
		}
	})
}

// TestElementwiseNonFinite pins what the kernels do with NaN and ±Inf: NaN
// passes through every output; σ(+Inf) is exactly 1; σ(−Inf) is the clamp's
// floor (a positive denormal, not 0); swish(±Inf) stays non-finite.
func TestElementwiseNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	bothElementwisePaths(t, func(t *testing.T) {
		// Nine elements: the first eight go through the assembly, the last
		// through the tail.
		for _, c := range []struct {
			x         float32
			sig       func(s float32) bool
			swish     func(s float32) bool
			sigDesc   string
			swishDesc string
		}{
			{nan, func(s float32) bool { return s != s }, func(s float32) bool { return s != s }, "NaN", "NaN"},
			{inf, func(s float32) bool { return s == 1 }, func(s float32) bool { return s == inf }, "1", "+Inf"},
			{-inf, func(s float32) bool { return s > 0 && s < 5e-39 }, func(s float32) bool { return s == -inf }, "in (0, 5e-39)", "-Inf"},
		} {
			x := make([]float32, 9)
			for i := range x {
				x[i] = c.x
			}
			sw, sig, sigm := make([]float32, 9), make([]float32, 9), make([]float32, 9)
			SwishInto(sw, sig, x)
			SigmoidInto(sigm, x)
			for i := range x {
				if !c.sig(sig[i]) || !c.sig(sigm[i]) {
					t.Errorf("σ(%g)[%d] = %g / %g, want %s", c.x, i, sig[i], sigm[i], c.sigDesc)
				}
				if !c.swish(sw[i]) {
					t.Errorf("swish(%g)[%d] = %g, want %s", c.x, i, sw[i], c.swishDesc)
				}
			}
		}
	})
}

// TestElementwisePositionIndependence: an element's result never depends on
// its index — lanes of the assembly and the scalar tail agree — which is what
// makes batch-1 and batch-N inference bitwise equal.
func TestElementwisePositionIndependence(t *testing.T) {
	bothElementwisePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			v := ewClasses[trial%len(ewClasses)](rng)
			src := make([]float32, 17)
			for i := range src {
				src[i] = v
			}
			for k, out := range ewKernels(src) {
				for i := range out {
					if !sameBits(out[i], out[0]) {
						t.Fatalf("%s(%g): index %d gives %g, index 0 gives %g", ewKernelNames[k], v, i, out[i], out[0])
					}
				}
			}
		}
	})
}

// TestBNKernelsMatchScalarLoops keeps the loops the kernels replaced as the
// reference — same expressions, same operation order, with float32(...)
// around each product so the compiler cannot contract it into an FMA (a
// baseline amd64 build never does). The mul/add/sub kernels must reproduce
// them bit for bit: swapping them in moved no batch-norm or Swish-backward
// result.
func TestBNKernelsMatchScalarLoops(t *testing.T) {
	bothElementwisePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{1, 7, 8, 9, 64, 259} {
			x, dy := make([]float32, n), make([]float32, n)
			for i := range x {
				x[i] = float32(rng.NormFloat64() * 3)
				dy[i] = float32(rng.NormFloat64())
			}
			mu, is := float32(rng.NormFloat64()), float32(0.5+rng.Float64())
			g, b := float32(rng.NormFloat64()), float32(rng.NormFloat64())
			k, m1, m2 := g*is, float32(rng.NormFloat64()*0.1), float32(rng.NormFloat64()*0.1)

			out, xhat, inf, dx, dsw := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			sig := make([]float32, n)
			SigmoidInto(sig, x)
			BNNormalizeInto(out, xhat, x, mu, is, g, b)
			BNInferInto(inf, x, mu, is, g, b)
			BNBackwardInto(dx, dy, xhat, k, m1, m2)
			SwishBackwardInto(dsw, dy, sig, x)
			for i := 0; i < n; i++ {
				xh := float32((x[i] - mu) * is)
				checks := []struct {
					name      string
					got, want float32
				}{
					{"normalize xhat", xhat[i], xh},
					{"normalize out", out[i], float32(g*xh) + b},
					{"infer", inf[i], float32(float32(g*(x[i]-mu))*is) + b},
					{"backward dx", dx[i], float32(k * (dy[i] - m1 - float32(xh*m2)))},
					{"swish backward", dsw[i], float32(float32(dy[i]*sig[i]) * (1 + float32(x[i]*(1-sig[i]))))},
				}
				for _, c := range checks {
					if math.Float32bits(c.got) != math.Float32bits(c.want) {
						t.Fatalf("%s[%d] of %d: kernel %g, scalar loop %g", c.name, i, n, c.got, c.want)
					}
				}
			}
		}
	})
}
