package efficientnet

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// Plan is a model frozen for inference under one precision policy: the
// forward lowered once into a fixed list of steps over numbered activation
// buffers, with everything the steps read copied out of the model — each
// convolution's weights rounded (under a bf16 policy) and packed into the A
// panels its GEMM consumes, each dense layer's weights packed as B panels,
// each depthwise kernel packed eight channels to a vector, and each batch
// norm's per-channel running-statistics scalars. This is the paper's §2
// "compile once" applied to the §3.3 evaluation loop and to serving: weight
// layouts and activation buffers are fixed before the first forward runs,
// and Infer only computes.
//
// A Plan is immutable, so any number of goroutines may share one, each with
// its own Workspace. It does not see later changes to the model: freeze again
// after a weight update, an EMA swap or a load. Its logits are bit for bit
// those of the model's eval-mode Forward under the same policy — the same
// kernels on the same values in the same order; only the per-call packing,
// weight rounding and allocation are gone.
type Plan struct {
	steps  []step
	bufs   []buffer
	floats int    // workspace floats per sample
	in     [3]int // input C, H, W
	logits int    // the buffer Infer copies out
	// gen counts the lowerings this Plan has held (see Release), so a
	// workspace can tell a recycled plan from the one it last laid out.
	gen   uint64
	arena *tensor.Arena // every float the steps read
}

// input is the buffer id steps name the caller's images by; no step writes
// it.
const input = -1

// buffer is one activation the steps pass along: per sample c×h×w floats, or
// c for a [N, C] vector (h == 0), live from step def through step last, at
// offset off of a sample's share of the workspace, size floats wide.
type buffer struct {
	c, h, w   int
	def, last int
	off, size int
}

type op uint8

const (
	opRound     op = iota // out = bf16(in); in place when out == in
	opConv                // out = conv(in) over packed weights
	opDepthwise           // out = depthwise(in)
	opBN                  // out = bn(out) on running statistics, then act
	opPool                // out [N,C] = mean of in over H, W
	opDense               // out = in @ W + b, then act
	opGate                // out *= in, the [N,C] gate broadcast over H, W
	opAdd                 // out += in
)

type act uint8

const (
	actNone act = iota
	actSwish
	actSigmoid
)

// step is one kernel call of the frozen forward; the fields its op does not
// use are zero.
type step struct {
	op      op
	act     act
	in, out int
	spec    tensor.ConvSpec
	conv    tensor.PackedConv
	dw      tensor.PackedDepthwise
	dense   tensor.PackedDense
	// vec is a dense layer's bias, or a batch norm's c-channel scalars as its
	// eval forward computes them: running mean, 1/sqrt(var+eps), gamma, beta.
	vec []float32
}

// Freeze lowers m to a Plan for inputs at m's configured resolution under
// policy. The plan copies what it reads, so m may change afterwards without
// affecting it.
func Freeze(m *Model, policy bf16.Policy) *Plan {
	return freeze(m, policy, m.Config.Resolution, m.Config.Resolution, false)
}

// plans recycles released plans: their step and buffer tables, and the arena
// that holds every float the steps read, whose slab a later Freeze refills
// without allocating.
var plans = sync.Pool{New: func() any { return &Plan{arena: tensor.NewArena()} }}

// Release hands the plan's storage to a later Freeze. The plan must not be
// used afterwards; under go test its weights turn to NaN.
func (p *Plan) Release() {
	p.arena.Reset()
	plans.Put(p)
}

// freeze lowers m for h×w inputs. A live plan, for one forward while m holds
// still, reads the fp32 weights where they are and lets every GEMM pack them,
// as the per-call kernels do; only what must be derived (bf16 weights, batch
// norm's scalars) is copied.
func freeze(m *Model, policy bf16.Policy, h, w int, live bool) *Plan {
	p := plans.Get().(*Plan)
	p.steps = slices.Grow(p.steps[:0], 8+14*len(m.Blocks)) // at most, under bf16
	p.bufs, p.floats, p.in = p.bufs[:0], 0, [3]int{3, h, w}
	p.gen++
	b := &builder{p: p, bf16: policy.ConvBF16, live: live}
	x := b.conv(input, m.StemConv.W.Data(), m.StemConv.Spec, false, false)
	b.bn(x, m.StemBN, actSwish)
	for _, blk := range m.Blocks {
		x = b.block(blk, x)
	}
	x = b.conv(x, m.HeadConv.W.Data(), m.HeadConv.Spec, false, false)
	b.bn(x, m.HeadBN, actSwish)
	// The classifier's dropout is identity at inference.
	b.p.logits = b.dense(b.pool(x), m.FC, actNone)
	b.p.layout()
	return b.p
}

// builder appends steps and buffers to a plan, tracking each buffer's
// lifetime as steps name it.
type builder struct {
	p          *Plan
	bf16, live bool
}

// buf opens a buffer that the next step added defines.
func (b *builder) buf(c, h, w int) int {
	at := len(b.p.steps)
	b.p.bufs = append(b.p.bufs, buffer{c: c, h: h, w: w, def: at, last: at})
	return len(b.p.bufs) - 1
}

func (b *builder) add(s step) {
	for _, id := range [2]int{s.in, s.out} {
		if id >= 0 {
			b.p.bufs[id].last = len(b.p.steps)
		}
	}
	b.p.steps = append(b.p.steps, s)
}

func (b *builder) dims(id int) (c, h, w int) {
	if id == input {
		return b.p.in[0], b.p.in[1], b.p.in[2]
	}
	buf := b.p.bufs[id]
	return buf.c, buf.h, buf.w
}

// round returns x rounded to bf16 under a bf16 policy, as a convolution's
// input is: in place when x dies at the convolution, into a copy when the
// caller's input or a residual (keep) still needs the fp32 values.
func (b *builder) round(x int, keep bool) int {
	if !b.bf16 {
		return x
	}
	out := x
	if keep || x == input {
		out = b.buf(b.dims(x))
	}
	b.add(step{op: opRound, in: x, out: out})
	return out
}

func outSize(in, k int, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// floats takes n floats of the plan's storage.
func (b *builder) floats(n int) []float32 { return b.p.arena.New(n).Data() }

// conv lowers a convolution or a depthwise one (packed weights) over x into
// a fresh buffer; under bf16 the weights are rounded once here, and the
// input, as round describes, on every call.
func (b *builder) conv(x int, w *tensor.Tensor, spec tensor.ConvSpec, keep, depthwise bool) int {
	x = b.round(x, keep)
	st := step{op: opConv, in: x, spec: spec}
	var d []float32 // the plan's copy of the weights, if it keeps one
	switch {
	case depthwise && b.live && !b.bf16:
		st.op, st.dw = opDepthwise, tensor.PackDepthwise(nil, w)
	case depthwise:
		d = b.floats(tensor.PackedDepthwiseLen(w))
		st.op, st.dw = opDepthwise, tensor.PackDepthwise(d, w)
	case b.live && !b.bf16:
		st.conv = tensor.PackConv(nil, w)
	default:
		d = b.floats(tensor.PackedConvLen(w))
		st.conv = tensor.PackConv(d, w)
	}
	if b.bf16 {
		bf16.RoundSlice(d, d)
	}
	c, h, wd := b.dims(x)
	if !depthwise {
		c = w.Dim(0)
	}
	k := w.Dim(2)
	st.out = b.buf(c, outSize(h, k, spec.StrideH, spec.PadH), outSize(wd, k, spec.StrideW, spec.PadW))
	b.add(st)
	return st.out
}

func (b *builder) bn(x int, l *nn.BatchNorm, a act) {
	c := l.RunningMean.Len()
	v := b.floats(4 * c)
	copy(v, l.RunningMean.Data())
	for ch := 0; ch < c; ch++ {
		v[c+ch] = l.RunningInvStd(ch)
	}
	copy(v[2*c:], l.Gamma.Data().Data())
	copy(v[3*c:], l.Beta.Data().Data())
	b.add(step{op: opBN, act: a, in: x, out: x, vec: v})
}

func (b *builder) pool(x int) int {
	c, _, _ := b.dims(x)
	out := b.buf(c, 0, 0)
	b.add(step{op: opPool, in: x, out: out})
	return out
}

// dense lowers l over the [N, In] vector x into a fresh [N, Out] one.
func (b *builder) dense(x int, l *nn.Dense, a act) int {
	w := l.W.Data()
	out := w.Dim(1)
	st := step{op: opDense, act: a, in: x, out: b.buf(out, 0, 0), dense: tensor.PackDense(nil, w), vec: l.B.Data().Data()}
	if !b.live {
		buf := b.floats(out + tensor.PackedDenseLen(w))
		st.dense, st.vec = tensor.PackDense(buf[out:], w), buf[:out]
		copy(st.vec, l.B.Data().Data())
	}
	b.add(st)
	return st.out
}

// block lowers one MBConv. The block input x is read by the first
// convolution and, with a skip connection, added back at the end, so only
// then must its first convolution leave it unrounded.
func (b *builder) block(blk *MBConv, x int) int {
	h := x
	if blk.Expand != nil {
		h = b.conv(h, blk.Expand.W.Data(), blk.Expand.Spec, blk.HasSkip, false)
		b.bn(h, blk.ExpandBN, actSwish)
	}
	h = b.conv(h, blk.Depthwise.W.Data(), blk.Depthwise.Spec, blk.HasSkip && h == x, true)
	b.bn(h, blk.DWBN, actSwish)
	// Squeeze-excitation: x · σ(W2·swish(W1·gap(x))).
	g := b.dense(b.dense(b.pool(h), blk.SE.Reduce, actSwish), blk.SE.Expand, actSigmoid)
	b.add(step{op: opGate, in: g, out: h})
	h = b.conv(h, blk.Project.W.Data(), blk.Project.Spec, false, false)
	b.bn(h, blk.ProjectBN, actNone)
	// Drop-path is identity at inference.
	if blk.HasSkip {
		b.add(step{op: opAdd, in: x, out: h})
	}
	return h
}

// layout assigns every buffer its offset in a sample's share of the
// workspace by interval allocation over the fixed step order: buffers are
// placed in the order the steps define them, each at the lowest offset that
// no buffer live at the same time occupies, so a buffer whose last step has
// passed hands its range on (static memory planning, as in MXNet: Chen et
// al., arXiv:1512.01274). Every buffer is a per-sample size times the batch,
// so the offsets for one sample, times the batch, lay out any batch.
func (p *Plan) layout() {
	live := make([]int, 0, 8) // placed buffers still live, by offset
	for i := range p.bufs {
		bi := &p.bufs[i]
		bi.size = (bi.c*max(bi.h, 1)*max(bi.w, 1) + 15) &^ 15 // whole 64-byte lines
		kept := live[:0]
		for _, j := range live {
			if p.bufs[j].last >= bi.def {
				kept = append(kept, j)
			}
		}
		live = kept
		at := 0 // first fit: the lowest gap between live buffers that holds bi
		pos := len(live)
		for k, j := range live {
			if at+bi.size <= p.bufs[j].off {
				pos = k
				break
			}
			at = max(at, p.bufs[j].off+p.bufs[j].size)
		}
		bi.off = at
		live = slices.Insert(live, pos, i)
		p.floats = max(p.floats, at+bi.size)
	}
}

// Workspace holds the activations of one Plan.Infer at a time: a slab the
// plan lays its buffers out in, grown on demand to the largest batch it has
// run, and a tensor header per buffer. Give each goroutine its own. It
// follows the plan it last ran, so one Workspace can serve a server's
// successive model generations.
type Workspace struct {
	slab  []float32
	plan  *Plan
	gen   uint64
	n     int
	views []tensor.Tensor
	x     *tensor.Tensor // the current call's input
}

// NewWorkspace returns a workspace: one an earlier user released, warm, or
// else an empty one that its first Infer sizes.
func NewWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// Release hands the workspace to a later NewWorkspace. It must not be used
// afterwards.
func (ws *Workspace) Release() { workspaces.Put(ws) }

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// bind lays p's buffers out in the slab for a batch of n, growing the slab
// if it is too small. Views are not cleared: every step overwrites all of a
// buffer it defines.
func (ws *Workspace) bind(p *Plan, n int) {
	if ws.plan == p && ws.gen == p.gen && ws.n == n {
		return
	}
	ws.gen = p.gen
	if len(ws.slab) < n*p.floats {
		ws.slab = make([]float32, n*p.floats)
	}
	if cap(ws.views) < len(p.bufs) {
		ws.views = make([]tensor.Tensor, len(p.bufs))
	}
	// A header keeps its shape storage from plan to plan, so rebinding a
	// workspace to a plan of the same model allocates nothing.
	ws.plan, ws.n, ws.views = p, n, ws.views[:len(p.bufs)]
	for i, b := range p.bufs {
		if b.h == 0 {
			ws.views[i].Rebind(ws.slab[n*b.off:n*(b.off+b.c)], n, b.c)
		} else {
			ws.views[i].Rebind(ws.slab[n*b.off:n*(b.off+b.c*b.h*b.w)], n, b.c, b.h, b.w)
		}
	}
}

func (ws *Workspace) t(id int) *tensor.Tensor {
	if id == input {
		return ws.x
	}
	return &ws.views[id]
}

// Infer maps images x [N,3,H,W] to fresh logits [N,NumClasses], with every
// activation in ws (nil: a workspace for this call alone). Under go test each
// buffer is filled with NaN before the step that defines it, so a kernel
// that leaves part of its output unwritten poisons the logits.
func (p *Plan) Infer(ws *Workspace, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim4()
	if [3]int{c, h, w} != p.in {
		panic(fmt.Sprintf("efficientnet: plan frozen for [N %d %d %d] inputs, got %v", p.in[0], p.in[1], p.in[2], x.Shape()))
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.bind(p, n)
	ws.x = x
	poison := testing.Testing()
	for i := range p.steps {
		s := &p.steps[i]
		if poison && s.out >= 0 && p.bufs[s.out].def == i {
			fillNaN(ws.t(s.out).Data())
		}
		s.run(ws)
	}
	ws.x = nil
	return ws.views[p.logits].Clone()
}

func fillNaN(s []float32) {
	nan := float32(math.NaN())
	for i := range s {
		s[i] = nan
	}
}

func (s *step) run(ws *Workspace) {
	in, out := ws.t(s.in), ws.t(s.out)
	switch s.op {
	case opRound:
		bf16.RoundSlice(out.Data(), in.Data())
	case opConv:
		tensor.Conv2DPackedInto(out, in, s.conv, s.spec, nil)
	case opDepthwise:
		tensor.DepthwiseConv2DPackedInto(out, in, s.dw, s.spec, nil)
	case opBN:
		n, c, h, w := out.Dim4()
		d, hw := out.Data(), h*w
		for ch := 0; ch < c; ch++ {
			for smp := 0; smp < n; smp++ {
				row := d[(smp*c+ch)*hw : (smp*c+ch+1)*hw]
				tensor.BNInferInto(row, row, s.vec[ch], s.vec[c+ch], s.vec[2*c+ch], s.vec[3*c+ch])
			}
		}
	case opPool:
		_, _, h, w := in.Dim4()
		tensor.SumChannelNCInto(out, in)
		out.ScaleInPlace(1 / float32(h*w))
	case opDense:
		tensor.MatMulPackedInto(out, in, s.dense)
		for row := out.Data(); len(row) > 0; row = row[len(s.vec):] {
			for j, v := range s.vec {
				row[j] += v
			}
		}
	case opGate:
		tensor.MulChannelNCInto(out, out, in)
	case opAdd:
		tensor.AddInto(out, in)
	}
	switch d := out.Data(); s.act {
	case actSwish:
		tensor.SwishInto(d, nil, d)
	case actSigmoid:
		tensor.SigmoidInto(d, d)
	}
}

// Infer maps images [N,3,H,W] to logits [N,NumClasses] without building an
// autograd tape: it freezes the model at x's resolution and runs the plan
// once, for callers that hold no Plan. It only reads the model, so
// concurrent calls are safe while nothing mutates it; the output is bit for
// bit the eval-mode Forward under the same precision policy.
func (m *Model) Infer(policy bf16.Policy, x *tensor.Tensor) *tensor.Tensor {
	_, _, h, w := x.Dim4()
	// With a recycled plan and workspace, a freeze-and-run repacks the
	// weights into warm memory and allocates only its logits.
	p, ws := freeze(m, policy, h, w, true), NewWorkspace()
	defer ws.Release()
	defer p.Release()
	return p.Infer(ws, x)
}
