package autograd

import (
	"math"

	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// --- Activations -----------------------------------------------------------

// Sigmoid applies the logistic function element-wise (tensor.SigmoidInto,
// the one sigmoid in the repo).
func Sigmoid(a *Value) *Value {
	ar := a.arena
	out := ar.New(a.T.Shape()...)
	tensor.SigmoidInto(out.Data(), a.T.Data())
	return NewOp("sigmoid", out, []*Value{a}, func(g *tensor.Tensor) {
		dx := ar.New(out.Shape()...)
		od, gd, dd := out.Data(), g.Data(), dx.Data()
		for i := range dd {
			s := od[i]
			dd[i] = gd[i] * s * (1 - s)
		}
		a.AccumulateOwned(dx)
	})
}

// Swish applies x*sigmoid(x) (SiLU), EfficientNet's activation. The forward
// keeps σ(x) for the backward's d/dx [x·σ(x)] = σ(x)(1 + x(1−σ(x))).
func Swish(a *Value) *Value {
	in := a.T.Data()
	ar := a.arena
	out := ar.New(a.T.Shape()...)
	sig := ar.New(a.T.Shape()...).Data()
	tensor.SwishInto(out.Data(), sig, in)
	return NewOp("swish", out, []*Value{a}, func(g *tensor.Tensor) {
		dx := ar.New(out.Shape()...)
		tensor.SwishBackwardInto(dx.Data(), g.Data(), sig, in)
		a.AccumulateOwned(dx)
	})
}

// --- Convolutions with mixed-precision policy -------------------------------

// MaybeBF16 returns t rounded to bfloat16 precision in a fresh tensor from
// ar when enabled, else t itself. Emulates feeding the MXU bf16 operands
// (paper §3.5); the engine's channel-sharded convolutions round their
// operands through it too.
func MaybeBF16(ar *tensor.Arena, t *tensor.Tensor, enabled bool) *tensor.Tensor {
	if !enabled {
		return t
	}
	r := ar.New(t.Shape()...)
	bf16.RoundSlice(r.Data(), t.Data())
	return r
}

// Conv2D convolves x with w under spec. When policy.ConvBF16 is set, inputs
// and weights are rounded to bfloat16 before the kernel runs (forward and
// backward), emulating the paper's mixed-precision training. Accumulation
// stays in fp32, as on TPU. Kernel temporaries come from sc (nil = the
// process-wide pool); engines pass their own so working sets stay separate.
func Conv2D(x, w *Value, spec tensor.ConvSpec, policy bf16.Policy, sc *tensor.Scratch) *Value {
	ar := arenaOf(x, w)
	xc := MaybeBF16(ar, x.T, policy.ConvBF16)
	wc := MaybeBF16(ar, w.T, policy.ConvBF16)
	out := ar.New(spec.OutShape(xc, wc)...)
	tensor.Conv2DInto(out, xc, wc, spec, sc)
	return NewOp("conv2d", out, []*Value{x, w}, func(g *tensor.Tensor) {
		gc := MaybeBF16(ar, g, policy.ConvBF16)
		dw := ar.New(wc.Shape()...)
		if !x.requiresGrad {
			// The stem conv over a Constant batch of images: nobody reads
			// dx, so skip the Wᵀ@dy GEMM and col2im that would build it.
			tensor.Conv2DBackwardInto(nil, dw, xc, wc, gc, spec, sc)
			w.Accumulate(dw)
			return
		}
		dx := ar.New(xc.Shape()...)
		tensor.Conv2DBackwardInto(dx, dw, xc, wc, gc, spec, sc)
		x.AccumulateOwned(dx)
		w.Accumulate(dw)
	})
}

// DepthwiseConv2D applies a depthwise convolution under the same
// mixed-precision policy as Conv2D, with kernel temporaries from sc.
func DepthwiseConv2D(x, w *Value, spec tensor.ConvSpec, policy bf16.Policy, sc *tensor.Scratch) *Value {
	ar := arenaOf(x, w)
	xc := MaybeBF16(ar, x.T, policy.ConvBF16)
	wc := MaybeBF16(ar, w.T, policy.ConvBF16)
	out := ar.New(spec.OutShape(xc, wc)...)
	tensor.DepthwiseConv2DPackedInto(out, xc, tensor.PackDepthwise(nil, wc), spec, sc)
	return NewOp("dwconv2d", out, []*Value{x, w}, func(g *tensor.Tensor) {
		gc := MaybeBF16(ar, g, policy.ConvBF16)
		dw := ar.New(wc.Shape()...)
		if !x.requiresGrad {
			tensor.DepthwiseConv2DBackwardInto(nil, dw, xc, wc, gc, spec)
			w.Accumulate(dw)
			return
		}
		dx := ar.New(xc.Shape()...)
		tensor.DepthwiseConv2DBackwardInto(dx, dw, xc, wc, gc, spec)
		x.AccumulateOwned(dx)
		w.Accumulate(dw)
	})
}

// --- Loss -------------------------------------------------------------------

// SoftmaxCrossEntropy computes the mean cross-entropy between logits [N,K]
// and integer labels, with optional label smoothing (EfficientNet trains with
// smoothing 0.1). Returns a scalar Value of shape [1].
func SoftmaxCrossEntropy(logits *Value, labels []int, smoothing float32) *Value {
	n, k := logits.T.Dim(0), logits.T.Dim(1)
	if len(labels) != n {
		panic("autograd: SoftmaxCrossEntropy label count mismatch")
	}
	ar := logits.arena
	probs := ar.New(n, k)
	var loss float64
	onVal := 1 - smoothing + smoothing/float32(k)
	offVal := smoothing / float32(k)
	for i := 0; i < n; i++ {
		row := logits.T.Data()[i*k : (i+1)*k]
		prow := probs.Data()[i*k : (i+1)*k]
		// Stable log-softmax.
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			prow[j] = float32(e)
			sum += e
		}
		logZ := math.Log(sum) + float64(maxv)
		for j := range prow {
			prow[j] = float32(float64(prow[j]) / sum)
		}
		// loss_i = -sum_j target_j * log p_j
		for j := 0; j < k; j++ {
			target := offVal
			if j == labels[i] {
				target = onVal
			}
			if target != 0 {
				logp := float64(row[j]) - logZ
				loss -= float64(target) * logp
			}
		}
	}
	out := full(ar, float32(loss/float64(n)), 1)
	return NewOp("softmax_ce", out, []*Value{logits}, func(g *tensor.Tensor) {
		scale := g.Data()[0] / float32(n)
		dl := ar.New(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				target := offVal
				if j == labels[i] {
					target = onVal
				}
				dl.Data()[i*k+j] = scale * (probs.At(i, j) - target)
			}
		}
		logits.Accumulate(dl)
	})
}

// Argmax returns the index of the max logit per row of a [N,K] tensor.
func Argmax(t *tensor.Tensor) []int {
	n, k := t.Dim(0), t.Dim(1)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best, bi := t.Data()[i*k], 0
		for j := 1; j < k; j++ {
			if v := t.Data()[i*k+j]; v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}
