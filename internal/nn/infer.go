package nn

import (
	"fmt"

	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// This file is the inference-mode half of the train/serve forward split:
// tape-free forwards over plain tensors. Each Infer method computes exactly
// what Forward computes with ctx.Training == false — the same operations in
// the same floating-point order, so results are bit-for-bit identical to the
// eval-mode tape path — but builds no autograd graph: no Value nodes, no
// backward closures, no activation caches kept alive for a backward pass
// that will never run. Evaluation and serving both ride this path; training
// keeps the tape.
//
// Infer returns a fresh tensor and leaves its input untouched. The
// element-wise layers also have an InPlace form over the same kernel, for a
// caller that owns the tensor (efficientnet's forward applies batch norm,
// Swish and the SE gate to the convolution outputs it has just allocated).

// Inferer is a layer with a tape-free inference forward. The policy controls
// the same mixed-precision emulation the training forward applies (bf16
// convolution operands); dropout and stochastic depth are identity, and
// batch normalization uses its running statistics.
type Inferer interface {
	Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor
}

// roundBF16 returns t rounded to bfloat16 precision when enabled, else t —
// the inference twin of the tape path's operand rounding (paper §3.5).
func roundBF16(t *tensor.Tensor, enabled bool) *tensor.Tensor {
	if !enabled {
		return t
	}
	r := tensor.New(t.Shape()...)
	bf16.RoundSlice(r.Data(), t.Data())
	return r
}

// SigmoidTensor applies the logistic function element-wise, tape-free: the
// same tensor.SigmoidInto kernel the tape's Sigmoid runs.
func SigmoidTensor(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(t.Shape()...)
	tensor.SigmoidInto(out.Data(), t.Data())
	return out
}

// SwishTensor applies x·σ(x) element-wise, tape-free: the tape's Swish
// kernel with no σ(x) kept for a backward pass.
func SwishTensor(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(t.Shape()...)
	tensor.SwishInto(out.Data(), nil, t.Data())
	return out
}

// SwishInPlace is SwishTensor overwriting t.
func SwishInPlace(t *tensor.Tensor) {
	tensor.SwishInto(t.Data(), nil, t.Data())
}

// ReLUTensor applies max(0, x) element-wise, tape-free.
func ReLUTensor(t *tensor.Tensor) *tensor.Tensor {
	return tensor.Apply(t, func(x float32) float32 {
		if x < 0 {
			return 0
		}
		return x
	})
}

// Infer implements Inferer.
func (l *Conv2D) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	xc := roundBF16(x, policy.ConvBF16)
	wc := roundBF16(l.W.Value.T, policy.ConvBF16)
	return tensor.Conv2D(xc, wc, l.Spec)
}

// Infer implements Inferer.
func (l *DepthwiseConv2D) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	xc := roundBF16(x, policy.ConvBF16)
	wc := roundBF16(l.W.Value.T, policy.ConvBF16)
	return tensor.DepthwiseConv2D(xc, wc, l.Spec)
}

// Infer implements Inferer.
func (l *Dense) Infer(_ bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMul(x, l.W.Value.T)
	n, m := out.Dim(0), out.Dim(1)
	bd := l.B.Value.T.Data()
	od := out.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			od[i*m+j] += bd[j]
		}
	}
	return out
}

// Infer implements Inferer: running-statistics normalization through the same
// per-row kernel, with the same per-channel scalars, as the tape's eval
// forward.
func (l *BatchNorm) Infer(_ bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	l.inferInto(out, x)
	return out
}

// InferInPlace is Infer overwriting x.
func (l *BatchNorm) InferInPlace(x *tensor.Tensor) { l.inferInto(x, x) }

func (l *BatchNorm) inferInto(out, x *tensor.Tensor) {
	n, c, h, w := x.Dim4()
	if c != l.c {
		panic(fmt.Sprintf("nn: BatchNorm built for %d channels, got %d", l.c, c))
	}
	l.applyRunning(out.Data(), x.Data(), n, h*w)
}

// Infer implements Inferer: x * σ(W2·swish(W1·gap(x))), tape-free.
func (l *SqueezeExcite) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	l.inferInto(out, policy, x)
	return out
}

// InferInPlace is Infer gating x itself.
func (l *SqueezeExcite) InferInPlace(policy bf16.Policy, x *tensor.Tensor) { l.inferInto(x, policy, x) }

func (l *SqueezeExcite) inferInto(out *tensor.Tensor, policy bf16.Policy, x *tensor.Tensor) {
	if x.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: SqueezeExcite built for %d channels, got %d", l.C, x.Dim(1)))
	}
	_, _, h, w := x.Dim4()
	// The squeezed vector and the dense outputs are this pass's own tensors.
	s := tensor.SumChannelNC(x) // [N,C]
	s.ScaleInPlace(1 / float32(h*w))
	s = l.Reduce.Infer(policy, s)
	SwishInPlace(s)
	s = l.Expand.Infer(policy, s)
	tensor.SigmoidInto(s.Data(), s.Data())
	tensor.MulChannelNCInto(out, x, s)
}

// Infer implements Inferer: activations are stateless, so the tensor-level
// function runs directly. Activations constructed literally (rather than via
// SwishLayer/ReLULayer) must set TF to be usable on the inference path.
func (l *Activation) Infer(_ bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	if l.TF == nil {
		panic(fmt.Sprintf("nn: activation %q has no tensor-level inference function (TF)", l.Name))
	}
	return l.TF(x)
}

// Infer implements Inferer: dropout is identity outside training.
func (l *Dropout) Infer(_ bf16.Policy, x *tensor.Tensor) *tensor.Tensor { return x }

// Infer implements Inferer: stochastic depth is identity outside training.
func (l *DropPath) Infer(_ bf16.Policy, x *tensor.Tensor) *tensor.Tensor { return x }

// Infer implements Inferer, threading x through every layer. Every child
// must itself implement Inferer; a layer that only has a tape forward is a
// loud error, not a silent fallback onto the tape.
func (s *Sequential) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		inf, ok := l.(Inferer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %T has no inference-mode forward", l))
		}
		x = inf.Infer(policy, x)
	}
	return x
}
