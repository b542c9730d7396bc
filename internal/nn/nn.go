package nn

import (
	"fmt"
	"math"
	"math/rand"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// Param is a trainable tensor with optimizer-relevant metadata.
type Param struct {
	// Name identifies the parameter for debugging and checkpoints.
	Name string
	// Value is the autograd leaf holding the weights and their gradient.
	Value *autograd.Value
	// NoAdapt marks parameters excluded from LARS layer-wise adaptation and
	// weight decay: batch-norm scales/shifts and biases, following You et
	// al. and the paper's §3.1 configuration.
	NoAdapt bool
}

// Data returns the parameter's weight tensor.
func (p *Param) Data() *tensor.Tensor { return p.Value.T }

// Grad returns the parameter's gradient tensor (nil before backward).
func (p *Param) Grad() *tensor.Tensor { return p.Value.Grad }

// BindGrad pins the parameter's gradient to buf, viewed in the parameter's
// shape. buf typically aliases a span of the engine's flattened reduction
// buffer: backward then accumulates straight into the all-reduce payload —
// no Clone on first touch, no post-backward flatten copy.
func (p *Param) BindGrad(buf []float32) {
	p.Value.BindGrad(tensor.FromSlice(buf, p.Data().Shape()...))
}

// BindData moves the parameter's weights into buf, viewed in the
// parameter's shape: the current values are copied in and the weight tensor
// aliases buf from then on. buf typically aliases a span of the engine's
// flat weight buffer, which one collective can then refresh across ranks.
// Call it before any forward pass records the old tensor.
func (p *Param) BindData(buf []float32) {
	copy(buf, p.Data().Data())
	p.Value.T = tensor.FromSlice(buf, p.Data().Shape()...)
}

// RegisterParams registers every parameter's leaf with the tape so Backward
// fires its grad-ready hook (see autograd.Tape).
func RegisterParams(t *autograd.Tape, params []*Param) {
	for _, p := range params {
		t.Register(p.Value)
	}
}

// ParamIndex builds a name→parameter map over params, erroring on duplicate
// names. Checkpoint state is keyed by parameter name, so a duplicate would
// silently alias two parameters' saved state.
func ParamIndex(params []*Param) (map[string]*Param, error) {
	idx := make(map[string]*Param, len(params))
	for _, p := range params {
		if _, dup := idx[p.Name]; dup {
			return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		idx[p.Name] = p
	}
	return idx, nil
}

// Layer is a differentiable module. Forward threads an execution context
// carrying train/eval mode and the mixed-precision policy.
type Layer interface {
	Forward(ctx *Ctx, x *autograd.Value) *autograd.Value
	Params() []*Param
}

// Ctx carries per-step execution state through a forward pass.
type Ctx struct {
	// Training selects batch statistics + regularizers (true) versus
	// running statistics and identity regularizers (false).
	Training bool
	// Precision is the mixed-precision policy applied to convolutions.
	Precision bf16.Policy
	// RNG drives dropout and stochastic depth; may be nil in eval mode.
	RNG *rand.Rand
	// Scratch supplies kernel temporaries (im2col buffers, GEMM panels).
	// May be nil, in which case kernels share the process-wide pool; the
	// replica engine sets a per-engine pool so concurrent engines keep
	// separate working sets.
	Scratch *tensor.Scratch
}

// EvalCtx returns a context for inference in full fp32.
func EvalCtx() *Ctx { return &Ctx{} }

// --- Conv layers ------------------------------------------------------------

// Conv2D is a bias-free 2-D convolution (EfficientNet convs carry no bias;
// the following BatchNorm supplies the shift).
type Conv2D struct {
	W    *Param
	Spec tensor.ConvSpec
}

// NewConv2D creates a conv layer with variance-scaling (fan-out) init, the
// initializer used by the official EfficientNet implementation.
func NewConv2D(rng *rand.Rand, name string, cin, cout, k, stride int) *Conv2D {
	fanOut := cout * k * k
	std := math.Sqrt(2.0 / float64(fanOut))
	w := tensor.Randn(rng, std, cout, cin, k, k)
	pad := tensor.SamePad(k)
	return &Conv2D{
		W:    &Param{Name: name + ".w", Value: autograd.Leaf(w, true)},
		Spec: tensor.ConvSpec{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	}
}

// Forward applies the convolution under the context's precision policy.
func (l *Conv2D) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	return autograd.Conv2D(x, l.W.Value, l.Spec, ctx.Precision, ctx.Scratch)
}

// Params returns the convolution kernel.
func (l *Conv2D) Params() []*Param { return []*Param{l.W} }

// DepthwiseConv2D convolves each channel with its own kernel.
type DepthwiseConv2D struct {
	W    *Param
	Spec tensor.ConvSpec
}

// NewDepthwiseConv2D creates a depthwise conv with fan-out init
// (fan-out = k*k for depthwise, per the EfficientNet reference code).
func NewDepthwiseConv2D(rng *rand.Rand, name string, c, k, stride int) *DepthwiseConv2D {
	std := math.Sqrt(2.0 / float64(k*k))
	w := tensor.Randn(rng, std, c, 1, k, k)
	pad := tensor.SamePad(k)
	return &DepthwiseConv2D{
		W:    &Param{Name: name + ".dw", Value: autograd.Leaf(w, true)},
		Spec: tensor.ConvSpec{StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	}
}

// Forward applies the depthwise convolution.
func (l *DepthwiseConv2D) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	return autograd.DepthwiseConv2D(x, l.W.Value, l.Spec, ctx.Precision, ctx.Scratch)
}

// Params returns the depthwise kernel.
func (l *DepthwiseConv2D) Params() []*Param { return []*Param{l.W} }

// --- Dense ------------------------------------------------------------------

// Dense is a fully connected layer y = x@W + b over [N, In] inputs.
type Dense struct {
	W, B *Param
}

// NewDense creates a dense layer with uniform fan-in init.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	bound := 1.0 / math.Sqrt(float64(in))
	w := tensor.Uniform(rng, -bound, bound, in, out)
	b := tensor.New(out)
	return &Dense{
		W: &Param{Name: name + ".w", Value: autograd.Leaf(w, true)},
		B: &Param{Name: name + ".b", Value: autograd.Leaf(b, true), NoAdapt: true},
	}
}

// Forward computes x@W + b.
func (l *Dense) Forward(_ *Ctx, x *autograd.Value) *autograd.Value {
	return autograd.AddRowBias(autograd.MatMul(x, l.W.Value), l.B.Value)
}

// Params returns weight and bias.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// --- Activations and containers ---------------------------------------------

// Activation wraps a stateless element-wise function F as a Layer.
type Activation struct {
	Name string
	F    func(*autograd.Value) *autograd.Value
}

// Forward applies the activation.
func (l *Activation) Forward(_ *Ctx, x *autograd.Value) *autograd.Value { return l.F(x) }

// Params returns nil: activations are parameter-free.
func (l *Activation) Params() []*Param { return nil }

// SwishLayer returns EfficientNet's swish activation as a Layer.
func SwishLayer() *Activation {
	return &Activation{Name: "swish", F: autograd.Swish}
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward threads x through every layer in order.
func (s *Sequential) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	for _, l := range s.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

// Params concatenates all child parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// --- Regularizers -----------------------------------------------------------

// Dropout zeroes activations with probability Rate during training and
// rescales survivors by 1/(1-Rate).
type Dropout struct {
	Rate float64
}

// Forward applies inverted dropout in training mode; identity in eval.
func (l *Dropout) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	if !ctx.Training || l.Rate <= 0 {
		return x
	}
	if ctx.RNG == nil {
		panic("nn: Dropout in training mode requires ctx.RNG")
	}
	keep := float32(1 - l.Rate)
	mask := x.Arena().New(x.T.Shape()...) // step memory, as the op's output is
	for i := range mask.Data() {
		if ctx.RNG.Float64() >= l.Rate {
			mask.Data()[i] = 1 / keep
		}
	}
	return autograd.Mul(x, autograd.Constant(mask))
}

// Params returns nil.
func (l *Dropout) Params() []*Param { return nil }

// DropPath implements stochastic depth: during training the entire residual
// branch is dropped per-sample with probability Rate, and kept branches are
// rescaled. EfficientNet applies this to every MBConv residual.
type DropPath struct {
	Rate float64
}

// Forward drops whole samples of the branch output.
func (l *DropPath) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	if !ctx.Training || l.Rate <= 0 {
		return x
	}
	if ctx.RNG == nil {
		panic("nn: DropPath in training mode requires ctx.RNG")
	}
	shape := x.T.Shape()
	n := shape[0]
	rest := x.T.Len() / n
	keep := float32(1 - l.Rate)
	mask := x.Arena().New(shape...)
	for s := 0; s < n; s++ {
		var v float32
		if ctx.RNG.Float64() >= l.Rate {
			v = 1 / keep
		}
		base := s * rest
		for i := 0; i < rest; i++ {
			mask.Data()[base+i] = v
		}
	}
	return autograd.Mul(x, autograd.Constant(mask))
}

// Params returns nil.
func (l *DropPath) Params() []*Param { return nil }

// --- Squeeze-and-Excitation ---------------------------------------------------

// SqueezeExcite is the SE block from EfficientNet: global-average-pool to
// [N,C], bottleneck dense + swish, expand dense + sigmoid, then channel-wise
// rescale of the input.
type SqueezeExcite struct {
	Reduce, Expand *Dense
	C              int
}

// NewSqueezeExcite builds an SE block for c channels with the given squeezed
// width (EfficientNet uses se_ratio=0.25 of the block's input channels).
func NewSqueezeExcite(rng *rand.Rand, name string, c, squeezed int) *SqueezeExcite {
	if squeezed < 1 {
		squeezed = 1
	}
	return &SqueezeExcite{
		Reduce: NewDense(rng, name+".se_reduce", c, squeezed),
		Expand: NewDense(rng, name+".se_expand", squeezed, c),
		C:      c,
	}
}

// Forward computes x * sigmoid(W2·swish(W1·gap(x))).
func (l *SqueezeExcite) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	if x.T.Dim(1) != l.C {
		panic(fmt.Sprintf("nn: SqueezeExcite built for %d channels, got %d", l.C, x.T.Dim(1)))
	}
	s := autograd.GlobalAvgPool(x) // [N,C]
	s = autograd.Swish(l.Reduce.Forward(ctx, s))
	s = autograd.Sigmoid(l.Expand.Forward(ctx, s))
	return autograd.MulChannelNC(x, s)
}

// Params returns the two dense layers' parameters.
func (l *SqueezeExcite) Params() []*Param {
	return append(l.Reduce.Params(), l.Expand.Params()...)
}
