package efficientnet

import (
	"fmt"
	"math/rand"

	"effnetscale/internal/autograd"
	"effnetscale/internal/nn"
)

// MBConv is the mobile inverted bottleneck block with squeeze-excitation:
// 1×1 expand → depthwise k×k → SE → 1×1 project, with a drop-path residual
// when the shapes allow it.
type MBConv struct {
	Expand     *nn.Conv2D // nil when ExpandRatio == 1
	ExpandBN   *nn.BatchNorm
	Depthwise  *nn.DepthwiseConv2D
	DWBN       *nn.BatchNorm
	SE         *nn.SqueezeExcite
	Project    *nn.Conv2D
	ProjectBN  *nn.BatchNorm
	DropPath   *nn.DropPath
	HasSkip    bool
	In, Out    int
	Stride     int
	Kernel     int
	ExpandedCh int
}

// NewMBConv builds one MBConv block.
func NewMBConv(rng *rand.Rand, name string, args BlockArgs, dropRate float64) *MBConv {
	expanded := args.InFilters * args.ExpandRatio
	b := &MBConv{
		In: args.InFilters, Out: args.OutFilters,
		Stride: args.Stride, Kernel: args.Kernel,
		ExpandedCh: expanded,
		HasSkip:    args.Stride == 1 && args.InFilters == args.OutFilters,
		DropPath:   &nn.DropPath{Rate: dropRate},
	}
	if args.ExpandRatio != 1 {
		b.Expand = nn.NewConv2D(rng, name+".expand", args.InFilters, expanded, 1, 1)
		b.ExpandBN = nn.NewBatchNorm(name+".expand_bn", expanded)
	}
	b.Depthwise = nn.NewDepthwiseConv2D(rng, name+".dw", expanded, args.Kernel, args.Stride)
	b.DWBN = nn.NewBatchNorm(name+".dw_bn", expanded)
	squeezed := int(float64(args.InFilters) * args.SERatio)
	b.SE = nn.NewSqueezeExcite(rng, name+".se", expanded, squeezed)
	b.Project = nn.NewConv2D(rng, name+".project", expanded, args.OutFilters, 1, 1)
	b.ProjectBN = nn.NewBatchNorm(name+".project_bn", args.OutFilters)
	return b
}

// Forward runs the block.
func (b *MBConv) Forward(ctx *nn.Ctx, x *autograd.Value) *autograd.Value {
	return b.forwardConv(ctx, x, defaultConv)
}

// forwardConv runs the block with the 1×1 convolutions (expand, project)
// routed through conv — the hook channel-sharded model parallelism uses.
func (b *MBConv) forwardConv(ctx *nn.Ctx, x *autograd.Value, conv Conv1x1Fn) *autograd.Value {
	h := x
	if b.Expand != nil {
		h = autograd.Swish(b.ExpandBN.Forward(ctx, conv(ctx, b.Expand, h)))
	}
	h = autograd.Swish(b.DWBN.Forward(ctx, b.Depthwise.Forward(ctx, h)))
	h = b.SE.Forward(ctx, h)
	h = b.ProjectBN.Forward(ctx, conv(ctx, b.Project, h))
	if b.HasSkip {
		h = autograd.Add(b.DropPath.Forward(ctx, h), x)
	}
	return h
}

// Params returns all trainable parameters of the block.
func (b *MBConv) Params() []*nn.Param {
	var ps []*nn.Param
	if b.Expand != nil {
		ps = append(ps, b.Expand.Params()...)
		ps = append(ps, b.ExpandBN.Params()...)
	}
	ps = append(ps, b.Depthwise.Params()...)
	ps = append(ps, b.DWBN.Params()...)
	ps = append(ps, b.SE.Params()...)
	ps = append(ps, b.Project.Params()...)
	ps = append(ps, b.ProjectBN.Params()...)
	return ps
}

// batchNorms returns the block's BN layers for reducer rebinding.
func (b *MBConv) batchNorms() []*nn.BatchNorm {
	var bns []*nn.BatchNorm
	if b.ExpandBN != nil {
		bns = append(bns, b.ExpandBN)
	}
	return append(bns, b.DWBN, b.ProjectBN)
}

// Model is a full EfficientNet: stem conv, MBConv stages, head conv,
// global pooling, dropout and the classifier.
type Model struct {
	Config Config

	StemConv *nn.Conv2D
	StemBN   *nn.BatchNorm
	Blocks   []*MBConv
	HeadConv *nn.Conv2D
	HeadBN   *nn.BatchNorm
	Dropout  *nn.Dropout
	FC       *nn.Dense

	params []*nn.Param
}

// New builds an EfficientNet for cfg with weights drawn from rng.
func New(rng *rand.Rand, cfg Config) *Model {
	if cfg.DepthDivisor == 0 {
		cfg.DepthDivisor = 8
	}
	if cfg.NumClasses == 0 {
		cfg.NumClasses = 1000
	}
	m := &Model{Config: cfg}
	stem := cfg.StemFilters()
	m.StemConv = nn.NewConv2D(rng, "stem", 3, stem, 3, 2)
	m.StemBN = nn.NewBatchNorm("stem_bn", stem)

	blocks := cfg.ScaledBlocks()
	total := 0
	for _, s := range blocks {
		total += s.Repeats
	}
	idx := 0
	prev := stem
	for si, stage := range blocks {
		for r := 0; r < stage.Repeats; r++ {
			args := stage
			args.InFilters = prev
			if r > 0 {
				args.Stride = 1
				args.InFilters = stage.OutFilters
			}
			dropRate := cfg.DropConnectRate * float64(idx) / float64(total)
			name := fmt.Sprintf("block%d_%d", si+1, r)
			blk := NewMBConv(rng, name, args, dropRate)
			m.Blocks = append(m.Blocks, blk)
			prev = stage.OutFilters
			idx++
		}
	}
	head := cfg.HeadFilters()
	m.HeadConv = nn.NewConv2D(rng, "head", prev, head, 1, 1)
	m.HeadBN = nn.NewBatchNorm("head_bn", head)
	m.Dropout = &nn.Dropout{Rate: cfg.DropoutRate}
	m.FC = nn.NewDense(rng, "fc", head, cfg.NumClasses)

	m.params = m.collectParams()
	return m
}

// Conv1x1Fn computes one of the model's 1×1 convolutions (MBConv expand and
// project, the head conv). ForwardConv routes every such conv through it,
// letting the replica engine substitute a channel-sharded evaluation whose
// output-channel rows are computed by different model-parallel ranks.
type Conv1x1Fn func(ctx *nn.Ctx, l *nn.Conv2D, x *autograd.Value) *autograd.Value

func defaultConv(ctx *nn.Ctx, l *nn.Conv2D, x *autograd.Value) *autograd.Value {
	return l.Forward(ctx, x)
}

// Forward maps images [N,3,H,W] to logits [N,NumClasses].
func (m *Model) Forward(ctx *nn.Ctx, x *autograd.Value) *autograd.Value {
	return m.ForwardConv(ctx, x, defaultConv)
}

// ForwardConv is Forward with the 1×1 convolutions routed through conv. With
// defaultConv it is bit-for-bit Forward; the hybrid data+model-parallel
// engine passes a sharded implementation (see internal/replica).
func (m *Model) ForwardConv(ctx *nn.Ctx, x *autograd.Value, conv Conv1x1Fn) *autograd.Value {
	h := autograd.Swish(m.StemBN.Forward(ctx, m.StemConv.Forward(ctx, x)))
	for _, b := range m.Blocks {
		h = b.forwardConv(ctx, h, conv)
	}
	h = autograd.Swish(m.HeadBN.Forward(ctx, conv(ctx, m.HeadConv, h)))
	pooled := autograd.GlobalAvgPool(h) // [N, head]
	pooled = m.Dropout.Forward(ctx, pooled)
	return m.FC.Forward(ctx, pooled)
}

// ShardableConvs returns the 1×1 convolutions ForwardConv routes through its
// hook — the channel-shardable parameter set, in Params() order.
func (m *Model) ShardableConvs() []*nn.Conv2D {
	var out []*nn.Conv2D
	for _, b := range m.Blocks {
		if b.Expand != nil {
			out = append(out, b.Expand)
		}
		out = append(out, b.Project)
	}
	return append(out, m.HeadConv)
}

func (m *Model) collectParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.StemConv.Params()...)
	ps = append(ps, m.StemBN.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.HeadConv.Params()...)
	ps = append(ps, m.HeadBN.Params()...)
	ps = append(ps, m.FC.Params()...)
	return ps
}

// Params returns every trainable parameter (stable order).
func (m *Model) Params() []*nn.Param { return m.params }

// BatchNorms returns every BN layer, letting the distributed engine install
// group statistics reducers (§3.4).
func (m *Model) BatchNorms() []*nn.BatchNorm {
	bns := []*nn.BatchNorm{m.StemBN}
	for _, b := range m.Blocks {
		bns = append(bns, b.batchNorms()...)
	}
	return append(bns, m.HeadBN)
}

// NumParams returns the total element count of all trainable parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.Data().Len()
	}
	return n
}

// RegisterParams registers every parameter with the tape so Backward fires
// a grad-ready hook per parameter (the engine's bucket-assembly seam).
func (m *Model) RegisterParams(t *autograd.Tape) {
	nn.RegisterParams(t, m.params)
}

// BindGrads pins every parameter's gradient to consecutive spans of buf in
// Params() order — the engine's flattened gradient layout — and returns the
// floats consumed (== NumParams()). After this, backward accumulates
// directly into buf and no flatten copy exists.
func (m *Model) BindGrads(buf []float32) int {
	off := 0
	for _, p := range m.params {
		n := p.Data().Len()
		p.BindGrad(buf[off : off+n])
		off += n
	}
	return off
}

// BindWeights is BindGrads' twin for the weights: it moves every parameter's
// weights into consecutive spans of buf in Params() order and returns the
// floats consumed (== NumParams()). A parameter's weight span and gradient
// span are then the same [lo, hi), so a run of parameters is one contiguous
// span of each buffer.
func (m *Model) BindWeights(buf []float32) int {
	off := 0
	for _, p := range m.params {
		n := p.Data().Len()
		p.BindData(buf[off : off+n])
		off += n
	}
	return off
}
