package nn

import (
	"math"
	"math/rand"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/tensor"
)

// gradCheckParams verifies analytic gradients of loss() against central
// finite differences for every given parameter.
func gradCheckParams(t *testing.T, name string, params []*Param, loss func() *autograd.Value, tol float64) {
	t.Helper()
	for _, p := range params {
		p.Value.ZeroGrad()
	}
	loss().Backward()
	analytic := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if p.Grad() == nil {
			t.Fatalf("%s: param %s has nil grad", name, p.Name)
		}
		analytic[i] = p.Grad().Clone()
	}
	const eps = 1e-2
	for pi, p := range params {
		for i := range p.Data().Data() {
			orig := p.Data().Data()[i]
			p.Data().Data()[i] = orig + eps
			plus := float64(loss().T.Data()[0])
			p.Data().Data()[i] = orig - eps
			minus := float64(loss().T.Data()[0])
			p.Data().Data()[i] = orig
			numeric := (plus - minus) / (2 * eps)
			a := float64(analytic[pi].Data()[i])
			if math.Abs(a-numeric) > tol*(1+math.Abs(a)+math.Abs(numeric)) {
				t.Fatalf("%s param %s grad[%d]: analytic %v vs numeric %v", name, p.Name, i, a, numeric)
			}
		}
	}
}

func evalNoGradCtx() *Ctx { return &Ctx{} }

func TestConv2DLayerShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, "c1", 2, 3, 3, 2)
	x := autograd.Leaf(tensor.Randn(rng, 1, 1, 2, 8, 8), false)
	ctx := evalNoGradCtx()
	y := conv.Forward(ctx, x)
	wantShape := []int{1, 3, 4, 4}
	for i, d := range wantShape {
		if y.T.Dim(i) != d {
			t.Fatalf("conv output shape %v, want %v", y.T.Shape(), wantShape)
		}
	}
	gradCheckParams(t, "conv2d-layer", conv.Params(), func() *autograd.Value {
		return autograd.Mean(conv.Forward(ctx, x))
	}, 2e-3)
}

func TestDenseLayerGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, "fc", 5, 3)
	x := autograd.Leaf(tensor.Randn(rng, 1, 4, 5), false)
	ctx := evalNoGradCtx()
	gradCheckParams(t, "dense", d.Params(), func() *autograd.Value {
		return autograd.Mean(autograd.Swish(d.Forward(ctx, x)))
	}, 2e-3)
	if !d.B.NoAdapt {
		t.Fatal("dense bias must be flagged NoAdapt for LARS")
	}
	if d.W.NoAdapt {
		t.Fatal("dense weight must not be flagged NoAdapt")
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm("bn", 3)
	x := autograd.Leaf(tensor.Randn(rng, 2.5, 4, 3, 5, 5), false)
	// Shift channel means so normalization has something to do.
	for i := range x.T.Data() {
		x.T.Data()[i] += 7
	}
	ctx := &Ctx{Training: true, RNG: rng}
	y := bn.Forward(ctx, x)
	n, c, h, w := y.T.Dim4()
	hw := h * w
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for s := 0; s < n; s++ {
			base := (s*c + ch) * hw
			for i := 0; i < hw; i++ {
				v := float64(y.T.Data()[base+i])
				sum += v
				sq += v * v
			}
		}
		m := float64(n * hw)
		mean := sum / m
		variance := sq/m - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean after BN = %v, want ~0", ch, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d var after BN = %v, want ~1", ch, variance)
		}
	}
	// Running stats must have moved toward batch stats.
	if bn.RunningMean.Data()[0] == 0 {
		t.Fatal("running mean not updated")
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm("bn", 2)
	// Nontrivial gamma/beta.
	bn.Gamma.Data().Data()[0] = 1.3
	bn.Gamma.Data().Data()[1] = 0.7
	bn.Beta.Data().Data()[0] = 0.2
	xT := tensor.Randn(rng, 1, 3, 2, 3, 3)
	ctx := &Ctx{Training: true, RNG: rng}

	// Check gamma/beta gradients.
	x := autograd.Leaf(xT, false)
	gradCheckParams(t, "bn-params", bn.Params(), func() *autograd.Value {
		return autograd.Mean(autograd.Swish(bn.Forward(ctx, x)))
	}, 3e-3)

	// Check input gradient via a grad-requiring leaf wrapped as a Param.
	xv := autograd.Leaf(xT, true)
	inputParam := &Param{Name: "x", Value: xv}
	gradCheckParams(t, "bn-input", []*Param{inputParam}, func() *autograd.Value {
		return autograd.Mean(autograd.Swish(bn.Forward(ctx, xv)))
	}, 3e-3)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.RunningMean.Data()[0] = 2
	bn.RunningVar.Data()[0] = 4
	bn.Eps = 0
	x := autograd.Constant(tensor.FromSlice([]float32{4, 0, 2, 6}, 1, 1, 2, 2))
	y := bn.Forward(evalNoGradCtx(), x)
	want := []float32{1, -1, 0, 2} // (x-2)/2
	for i, v := range y.T.Data() {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Fatalf("eval BN[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// doublingReducer simulates a BN group of two replicas holding identical
// data: all statistics double, so normalization must be unchanged.
type doublingReducer struct{ calls int }

func (r *doublingReducer) ReduceStats(count float64, vecs ...[]float64) float64 {
	r.calls++
	for _, v := range vecs {
		for i := range v {
			v[i] *= 2
		}
	}
	return count * 2
}

func TestBatchNormGroupReducerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xT := tensor.Randn(rng, 1, 2, 3, 4, 4)
	ctx := &Ctx{Training: true, RNG: rng}

	local := NewBatchNorm("bn", 3)
	grouped := NewBatchNorm("bn", 3)
	red := &doublingReducer{}
	grouped.Reducer = red

	y1 := local.Forward(ctx, autograd.Constant(xT))
	y2 := grouped.Forward(ctx, autograd.Constant(xT))
	for i := range y1.T.Data() {
		if math.Abs(float64(y1.T.Data()[i]-y2.T.Data()[i])) > 1e-5 {
			t.Fatalf("identical-replica group BN differs at %d: %v vs %v", i, y1.T.Data()[i], y2.T.Data()[i])
		}
	}
	if red.calls == 0 {
		t.Fatal("group reducer was never invoked")
	}
}

func TestSqueezeExciteGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	se := NewSqueezeExcite(rng, "se", 4, 2)
	x := autograd.Leaf(tensor.Randn(rng, 1, 2, 4, 3, 3), false)
	ctx := evalNoGradCtx()
	y := se.Forward(ctx, x)
	if !tensor.SameShape(y.T, x.T) {
		t.Fatalf("SE output shape %v, want %v", y.T.Shape(), x.T.Shape())
	}
	gradCheckParams(t, "se", se.Params(), func() *autograd.Value {
		return autograd.Mean(se.Forward(ctx, x))
	}, 3e-3)
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := &Dropout{Rate: 0.5}
	x := autograd.Constant(tensor.Ones(1, 1, 10, 10))
	// Eval: identity.
	y := d.Forward(evalNoGradCtx(), x)
	for _, v := range y.T.Data() {
		if v != 1 {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	// Train: elements are 0 or 1/keep.
	ctx := &Ctx{Training: true, RNG: rng}
	y = d.Forward(ctx, x)
	var zeros, scaled int
	for _, v := range y.T.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("dropout produced unexpected value %v", v)
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Fatalf("dropout mask degenerate: %d zeros, %d scaled", zeros, scaled)
	}
}

func TestDropPathDropsWholeSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dp := &DropPath{Rate: 0.5}
	x := autograd.Constant(tensor.Ones(16, 2, 2, 2))
	ctx := &Ctx{Training: true, RNG: rng}
	y := dp.Forward(ctx, x)
	n := 16
	rest := y.T.Len() / n
	var kept, dropped int
	for s := 0; s < n; s++ {
		first := y.T.Data()[s*rest]
		for i := 0; i < rest; i++ {
			if y.T.Data()[s*rest+i] != first {
				t.Fatalf("DropPath must act per-sample; sample %d is mixed", s)
			}
		}
		if first == 0 {
			dropped++
		} else {
			kept++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("DropPath degenerate: kept=%d dropped=%d", kept, dropped)
	}
}

func TestSequentialComposesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := &Sequential{Layers: []Layer{
		NewConv2D(rng, "c1", 1, 2, 3, 1),
		NewBatchNorm("bn1", 2),
		SwishLayer(),
	}}
	if got := len(seq.Params()); got != 3 { // conv.w, gamma, beta
		t.Fatalf("Sequential.Params() = %d params, want 3", got)
	}
	x := autograd.Constant(tensor.Ones(2, 1, 5, 5))
	y := seq.Forward(&Ctx{Training: true, RNG: rng}, x)
	if y.T.Dim(1) != 2 {
		t.Fatalf("sequential output channels = %d, want 2", y.T.Dim(1))
	}
}

func TestSwishLayerMatchesFunction(t *testing.T) {
	x := autograd.Constant(tensor.FromSlice([]float32{-1, 0, 1, 2}, 4))
	a := SwishLayer().Forward(evalNoGradCtx(), x)
	b := autograd.Swish(x)
	for i := range a.T.Data() {
		if a.T.Data()[i] != b.T.Data()[i] {
			t.Fatal("SwishLayer must match autograd.Swish")
		}
	}
}

// bnReference is the scalar batch normalization this package ran before its
// apply passes moved onto tensor's element-wise kernels, kept as the
// reference those kernels — and the loops around them — must reproduce bit
// for bit: the same float64 statistics, then the same float32 expressions
// element by element (float32(...) around each product bars FMA contraction,
// as a baseline amd64 build does).
type bnReference struct {
	n, c, hw        int
	gamma, beta     []float32
	mean, invstd    []float64 // batch statistics (training)
	rmean, rinvstd  []float32 // running statistics (eval / Infer)
	xhat, out, eval []float32
}

func newBNReference(l *BatchNorm, x *tensor.Tensor) *bnReference {
	n, c, h, w := x.Dim4()
	hw := h * w
	xd := x.Data()
	r := &bnReference{n: n, c: c, hw: hw,
		gamma: append([]float32(nil), l.Gamma.Data().Data()...),
		beta:  append([]float32(nil), l.Beta.Data().Data()...),
		mean:  make([]float64, c), invstd: make([]float64, c),
		rmean: append([]float32(nil), l.RunningMean.Data()...), rinvstd: make([]float32, c),
		xhat: make([]float32, len(xd)), out: make([]float32, len(xd)), eval: make([]float32, len(xd)),
	}
	sum, sqsum := make([]float64, c), make([]float64, c)
	for nc := 0; nc < n*c; nc++ {
		var s, sq float64
		for _, v := range xd[nc*hw : (nc+1)*hw] {
			s += float64(v)
			sq += float64(v) * float64(v)
		}
		sum[nc%c] += s
		sqsum[nc%c] += sq
	}
	m := float64(n * hw)
	for ch := 0; ch < c; ch++ {
		r.mean[ch] = sum[ch] / m
		v := sqsum[ch]/m - r.mean[ch]*r.mean[ch]
		if v < 0 {
			v = 0
		}
		r.invstd[ch] = 1 / math.Sqrt(v+l.Eps)
		r.rinvstd[ch] = float32(1 / math.Sqrt(float64(l.RunningVar.Data()[ch])+l.Eps))
	}
	for nc := 0; nc < n*c; nc++ {
		ch := nc % c
		mu, is := float32(r.mean[ch]), float32(r.invstd[ch])
		for i := nc * hw; i < (nc+1)*hw; i++ {
			xh := float32((xd[i] - mu) * is)
			r.xhat[i] = xh
			r.out[i] = float32(r.gamma[ch]*xh) + r.beta[ch]
			r.eval[i] = float32(float32(r.gamma[ch]*(xd[i]-r.rmean[ch]))*r.rinvstd[ch]) + r.beta[ch]
		}
	}
	return r
}

// backward is the training backward's input gradient for upstream dy.
func (r *bnReference) backward(dy []float32) []float32 {
	s1, s2 := make([]float64, r.c), make([]float64, r.c)
	for nc := 0; nc < r.n*r.c; nc++ {
		var a, b float64
		for i := nc * r.hw; i < (nc+1)*r.hw; i++ {
			a += float64(dy[i])
			b += float64(dy[i]) * float64(r.xhat[i])
		}
		s1[nc%r.c] += a
		s2[nc%r.c] += b
	}
	m := float64(r.n * r.hw)
	dx := make([]float32, len(dy))
	for nc := 0; nc < r.n*r.c; nc++ {
		ch := nc % r.c
		k := r.gamma[ch] * float32(r.invstd[ch])
		m1, m2 := float32(s1[ch]/m), float32(s2[ch]/m)
		for i := nc * r.hw; i < (nc+1)*r.hw; i++ {
			dx[i] = float32(k * (dy[i] - m1 - float32(r.xhat[i]*m2)))
		}
	}
	return dx
}

// TestBatchNormMatchesScalarReference: moving the normalize, dx and
// running-statistics passes onto the element-wise kernels (and the eval pass
// onto a channel-outer loop) changed no output bit, for row lengths that are
// all tail (4), all vector (16) and mixed (25).
func TestBatchNormMatchesScalarReference(t *testing.T) {
	sameBits := func(name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for _, side := range []int{2, 4, 5} {
		const n, c = 3, 5
		bn := NewBatchNorm("bn", c)
		for ch := 0; ch < c; ch++ {
			bn.Gamma.Data().Data()[ch] = float32(0.5 + rng.Float64())
			bn.Beta.Data().Data()[ch] = float32(rng.NormFloat64())
			bn.RunningMean.Data()[ch] = float32(rng.NormFloat64())
			bn.RunningVar.Data()[ch] = float32(0.2 + rng.Float64())
		}
		xT := tensor.Randn(rng, 2, n, c, side, side)
		dyT := tensor.Randn(rng, 1, n, c, side, side)
		ref := newBNReference(bn, xT) // before the training forward moves the running statistics

		sameBits("eval forward", bn.Forward(&Ctx{}, autograd.Constant(xT)).T.Data(), ref.eval)

		x := autograd.Leaf(xT, true)
		y := bn.Forward(&Ctx{Training: true}, x)
		sameBits("training forward", y.T.Data(), ref.out)
		autograd.Sum(autograd.Mul(y, autograd.Constant(dyT))).Backward()
		sameBits("training dx", x.Grad.Data(), ref.backward(dyT.Data()))
	}
}
