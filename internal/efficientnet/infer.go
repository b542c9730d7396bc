package efficientnet

import (
	"effnetscale/internal/bf16"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// bnSwishInPlace applies batch norm on running statistics, then Swish, to h —
// a tensor the pass itself allocated (a convolution's output), so one tensor
// serves conv → BN → Swish instead of three.
func bnSwishInPlace(bn *nn.BatchNorm, h *tensor.Tensor) *tensor.Tensor {
	bn.InferInPlace(h)
	nn.SwishInPlace(h)
	return h
}

// Infer runs the block tape-free in inference mode: drop-path is identity,
// batch norm uses running statistics. Bit-for-bit identical to Forward with
// ctx.Training == false under the same precision policy. x is only read:
// every in-place step below works on a convolution output of this call.
func (b *MBConv) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	h := x
	if b.Expand != nil {
		h = bnSwishInPlace(b.ExpandBN, b.Expand.Infer(policy, h))
	}
	h = bnSwishInPlace(b.DWBN, b.Depthwise.Infer(policy, h))
	b.SE.InferInPlace(policy, h)
	h = b.Project.Infer(policy, h)
	b.ProjectBN.InferInPlace(h)
	if b.HasSkip {
		tensor.AddInto(h, x)
	}
	return h
}

// Infer maps images [N,3,H,W] to logits [N,NumClasses] without building an
// autograd tape — the model-level seam evaluation and serving run on. It is
// safe for concurrent use by multiple goroutines as long as nothing mutates
// the parameters or BN statistics meanwhile: the pass only reads model state
// and x, and overwrites nothing but activations it allocated itself (each
// convolution's output is normalized, activated, gated and added to in
// place). The output is bit-for-bit identical to Forward in eval mode under
// the same precision policy.
func (m *Model) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	h := bnSwishInPlace(m.StemBN, m.StemConv.Infer(policy, x))
	for _, b := range m.Blocks {
		h = b.Infer(policy, h)
	}
	h = bnSwishInPlace(m.HeadBN, m.HeadConv.Infer(policy, h))
	_, _, hh, ww := h.Dim4()
	pooled := tensor.SumChannelNC(h) // [N, head]
	pooled.ScaleInPlace(1 / float32(hh*ww))
	return m.FC.Infer(policy, pooled)
}
