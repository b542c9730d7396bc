package nn

import (
	"math/rand"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// The inference forward (efficientnet.Plan) lowers each layer once: weights
// rounded and packed, batch norm's running statistics reduced to per-channel
// scalars, dropout and drop-path dropped. The tests here hold that lowering,
// layer by layer, to the eval-mode tape forward bit for bit, through the same
// tensor kernels the plan calls.

// assertBitIdentical fails unless got and want match exactly: the contract is
// bit-for-bit parity with the eval-mode tape forward, not approximate
// agreement.
func assertBitIdentical(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("shape mismatch: got %v want %v", got.Shape(), want.Shape())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("element %d differs: frozen %v, eval-mode forward %v", i, g[i], w[i])
		}
	}
}

// policies exercises both halves of the mixed-precision seam.
var policies = map[string]bf16.Policy{"fp32": bf16.FP32Policy, "bf16": bf16.DefaultPolicy}

// rounded returns t rounded to bf16 under pol, else t itself.
func rounded(pol bf16.Policy, t *tensor.Tensor) *tensor.Tensor {
	if !pol.ConvBF16 {
		return t
	}
	r := t.Clone()
	bf16.RoundSlice(r.Data(), r.Data())
	return r
}

// frozenConv packs l's weights once, rounding the packed panels (not the
// weights) under bf16, as the plan does.
func frozenConv(pol bf16.Policy, l *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	w := l.W.Data()
	buf := make([]float32, tensor.PackedConvLen(w))
	pc := tensor.PackConv(buf, w)
	if pol.ConvBF16 {
		bf16.RoundSlice(buf, buf)
	}
	out := tensor.New(l.Spec.OutShape(x, w)...)
	tensor.Conv2DPackedInto(out, rounded(pol, x), pc, l.Spec, nil)
	return out
}

// frozenDense is x @ W + b over W packed once.
func frozenDense(l *Dense, x *tensor.Tensor) *tensor.Tensor {
	w := l.W.Data()
	pd := tensor.PackDense(make([]float32, tensor.PackedDenseLen(w)), w)
	out := tensor.New(x.Dim(0), w.Dim(1))
	tensor.MatMulPackedInto(out, x, pd)
	b, d := l.B.Data().Data(), out.Data()
	for i := range d {
		d[i] += b[i%len(b)]
	}
	return out
}

// frozenBN applies the running statistics through BNInferInto with the
// scalars RunningInvStd gives, into out (which may be x).
func frozenBN(l *BatchNorm, out, x *tensor.Tensor) {
	n, c, h, w := x.Dim4()
	hw := h * w
	for ch := 0; ch < c; ch++ {
		for s := 0; s < n; s++ {
			lo := (s*c + ch) * hw
			tensor.BNInferInto(out.Data()[lo:lo+hw], x.Data()[lo:lo+hw], l.RunningMean.Data()[ch], l.RunningInvStd(ch),
				l.Gamma.Data().Data()[ch], l.Beta.Data().Data()[ch])
		}
	}
}

// frozenSE gates x into out (which may be x): x · σ(W2·swish(W1·gap(x))).
func frozenSE(l *SqueezeExcite, out, x *tensor.Tensor) {
	_, _, h, w := x.Dim4()
	s := tensor.SumChannelNC(x)
	s.ScaleInPlace(1 / float32(h*w))
	r := frozenDense(l.Reduce, s)
	tensor.SwishInto(r.Data(), nil, r.Data())
	g := frozenDense(l.Expand, r)
	tensor.SigmoidInto(g.Data(), g.Data())
	tensor.MulChannelNCInto(out, x, g)
}

func TestInferMatchesEvalForwardPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 3, 6, 8, 8)

	bn := NewBatchNorm("bn", 6)
	// Non-trivial running statistics: a fresh BN is mean 0 / var 1, which
	// would let a batch-stats bug slip through the parity check.
	for i := range bn.RunningMean.Data() {
		bn.RunningMean.Data()[i] = float32(i)*0.3 - 0.7
		bn.RunningVar.Data()[i] = 0.5 + float32(i)*0.21
	}
	bn.Gamma.Value.T.Data()[2] = 1.7
	bn.Beta.Value.T.Data()[4] = -0.4
	conv := NewConv2D(rng, "c", 6, 4, 3, 2)
	dw := NewDepthwiseConv2D(rng, "dw", 6, 3, 1)
	se := NewSqueezeExcite(rng, "se", 6, 2)

	for pname, pol := range policies {
		ctx := &Ctx{Precision: pol}
		eval := func(l Layer) *tensor.Tensor { return l.Forward(ctx, autograd.Constant(x)).T }
		frozen := map[string]func() (Layer, *tensor.Tensor){
			"conv": func() (Layer, *tensor.Tensor) { return conv, frozenConv(pol, conv, x) },
			"depthwise": func() (Layer, *tensor.Tensor) {
				w := rounded(pol, dw.W.Data().Clone())
				out := tensor.New(dw.Spec.OutShape(x, w)...)
				tensor.DepthwiseConv2DInto(out, rounded(pol, x), w, dw.Spec)
				return dw, out
			},
			"batchnorm": func() (Layer, *tensor.Tensor) {
				out := tensor.New(x.Shape()...)
				frozenBN(bn, out, x)
				return bn, out
			},
			"batchnorm/inplace": func() (Layer, *tensor.Tensor) {
				own := x.Clone()
				frozenBN(bn, own, own)
				return bn, own
			},
			"se": func() (Layer, *tensor.Tensor) {
				out := tensor.New(x.Shape()...)
				frozenSE(se, out, x)
				return se, out
			},
			"se/inplace": func() (Layer, *tensor.Tensor) {
				own := x.Clone()
				frozenSE(se, own, own)
				return se, own
			},
			// The plan drops the regularizers: at eval they return their
			// input itself.
			"dropout":  func() (Layer, *tensor.Tensor) { return &Dropout{Rate: 0.5}, x },
			"droppath": func() (Layer, *tensor.Tensor) { return &DropPath{Rate: 0.5}, x },
		}
		for lname, run := range frozen {
			t.Run(pname+"/"+lname, func(t *testing.T) {
				l, got := run()
				assertBitIdentical(t, got, eval(l))
			})
		}
	}
}

func TestInferMatchesEvalForwardDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, "fc", 10, 5)
	x := tensor.Randn(rng, 1, 4, 10)
	want := d.Forward(EvalCtx(), autograd.Constant(x)).T
	assertBitIdentical(t, frozenDense(d, x), want)
}
