package autograd

import (
	"fmt"
	"sync/atomic"

	"effnetscale/internal/tensor"
)

// Value is a node in the autodiff graph: a forward tensor plus the plumbing
// needed to propagate gradients to its parents.
type Value struct {
	// T holds the forward result. It must not be mutated after creation.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT during Backward. It is nil until the first
	// contribution arrives and for Values that do not require gradients —
	// unless BindGrad pinned it to caller-owned storage, in which case it
	// is never nil and never reallocated.
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Value
	// back propagates this node's accumulated gradient into the parents.
	// nil for leaves.
	back func(grad *tensor.Tensor)
	op   string

	// visit stamps the backward pass that last reached this node; stamps
	// come from a process-wide counter so passes over tapes that share
	// leaves (parameters accumulate across micro-batch tapes) can never
	// collide without any per-pass visited map.
	visit uint64
	// pending counts this node's not-yet-consumed incoming gradient edges
	// within the pass stamped in visit. A parameter leaf reaching zero has
	// received its last Accumulate of the pass — the grad-ready moment.
	pending int32
	// param marks leaves registered with a Tape (see Tape.Register).
	param bool
	// bound marks Grad as pinned storage (BindGrad): ZeroGrad keeps the
	// tensor and Accumulate writes through it instead of cloning.
	bound bool
	// fresh is true while a bound Grad holds no contribution of the
	// current accumulation window; the first Accumulate overwrites
	// (bit-for-bit what Clone used to produce) instead of adding.
	fresh bool
}

// Leaf wraps t as a graph input. If requiresGrad is true, Backward will
// accumulate into its Grad (model parameters); otherwise the node blocks
// gradient flow (inputs, labels).
func Leaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{T: t, requiresGrad: requiresGrad, op: "leaf"}
}

// Constant wraps t as a non-differentiable input.
func Constant(t *tensor.Tensor) *Value { return Leaf(t, false) }

// RequiresGrad reports whether gradients flow into this Value.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// Op returns the name of the operator that produced this Value.
func (v *Value) Op() string { return v.op }

// ZeroGrad drops the accumulated gradient so the Value can be reused across
// steps (parameters are reused; activations are rebuilt each step). A bound
// gradient (BindGrad) keeps its storage and is merely marked fresh — the
// owner of the storage decides whether stale bytes need clearing (a leaf the
// next backward never touches keeps whatever the buffer holds).
func (v *Value) ZeroGrad() {
	if v.bound {
		v.fresh = true
		return
	}
	v.Grad = nil
}

// BindGrad pins v's gradient to t for the rest of the Value's life: Grad is
// never nil again, ZeroGrad keeps the tensor, and the first Accumulate of
// each accumulation window overwrites it in place — no Clone, no per-step
// allocation. t may alias caller-owned storage (the engine binds every
// parameter into its flattened reduction buffer), and t's length must match
// the forward tensor's.
func (v *Value) BindGrad(t *tensor.Tensor) {
	if !v.requiresGrad {
		panic("autograd: BindGrad on a Value that does not require gradients")
	}
	if t.Len() != v.T.Len() {
		panic(fmt.Sprintf("autograd: BindGrad length %d does not match value length %d", t.Len(), v.T.Len()))
	}
	v.Grad = t
	v.bound = true
	v.fresh = true
}

// NewOp creates a Value produced by a custom operator. out is the forward
// result, parents are the graph inputs, and back receives dLoss/dout and must
// push contributions into each parent via Accumulate. back may be nil for
// non-differentiable ops. The node requires grad iff any parent does.
func NewOp(op string, out *tensor.Tensor, parents []*Value, back func(grad *tensor.Tensor)) *Value {
	req := false
	for _, p := range parents {
		if p.requiresGrad {
			req = true
			break
		}
	}
	v := &Value{T: out, requiresGrad: req, parents: parents, op: op}
	if req {
		v.back = back
	}
	return v
}

// Accumulate adds g into v's gradient if v requires one. Ops call this from
// their backward closures. A fresh bound gradient is overwritten in place —
// the same bits Clone used to produce, without the allocation.
func (v *Value) Accumulate(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = g.Clone()
		return
	}
	if v.fresh {
		if g.Len() != v.Grad.Len() {
			panic(fmt.Sprintf("autograd: Accumulate length %d into bound gradient of length %d", g.Len(), v.Grad.Len()))
		}
		copy(v.Grad.Data(), g.Data())
		v.fresh = false
		return
	}
	tensor.AddInto(v.Grad, g)
}

// AccumulateOwned is Accumulate for a gradient the caller allocated for this
// one call and will never read, write or hand to anyone else again: a first
// contribution adopts g itself as v's gradient instead of cloning it (the
// same bits, one allocation and one copy fewer per activation). Later
// contributions add into the adopted tensor, which is why the caller must
// let go of it. Ops that forward their own incoming gradient (Add, Reshape,
// AddChannel, ...) must keep using Accumulate: that tensor belongs to the
// node it was accumulated for.
func (v *Value) AccumulateOwned(g *tensor.Tensor) {
	if v.requiresGrad && v.Grad == nil {
		v.Grad = g
		return
	}
	v.Accumulate(g)
}

// Backward computes gradients of v (which must be a scalar: one element)
// with respect to every reachable Value that requires gradients. Callers
// that need grad-ready hooks or want the traversal arenas reused across
// steps run the equivalent Tape.Backward instead.
func (v *Value) Backward() {
	var t Tape
	t.Backward(v)
}

// passCounter issues process-wide unique stamps for backward passes. A
// global counter (rather than a per-tape one) means parameters shared
// across tapes — gradient accumulation runs one tape per micro-batch over
// the same leaves — can never confuse one pass's visit marks for another's.
var passCounter atomic.Uint64

// frame is one suspended node of the iterative DFS in Tape.topo.
type frame struct {
	v    *Value
	next int
}

// Tape owns a backward traversal: reusable DFS arenas (no per-step visited
// map or order allocation) and the grad-ready seam. Leaves registered as
// parameters fire the OnGradReady hook the moment their last gradient
// contribution of a pass lands — while the pass is still back-propagating
// through earlier layers — which is what lets the engine hand gradient
// buckets to the reduction stream mid-backward (the paper's §3.4 overlap).
//
// A Tape is not safe for concurrent use, and a parameter leaf should be
// registered with exactly one Tape — the hook fires on whichever tape runs
// the pass.
type Tape struct {
	params  []*Value
	onReady func(*Value)

	// order and stack are the traversal arenas, reused across passes.
	order []*Value
	stack []frame
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Register marks leaves as parameters of this tape: each will fire the
// OnGradReady hook exactly once per Backward. Values must require gradients
// and must not be registered twice.
func (t *Tape) Register(vs ...*Value) {
	for _, v := range vs {
		if !v.requiresGrad {
			panic("autograd: Register on a Value that does not require gradients")
		}
		if v.param {
			panic("autograd: Value registered twice")
		}
		v.param = true
		t.params = append(t.params, v)
	}
}

// OnGradReady installs the grad-ready hook. It is called on the goroutine
// running Backward, once per registered leaf per pass: mid-walk the moment
// the leaf's last incoming gradient edge is consumed, or — for registered
// leaves the graph never reached (a frozen or unused parameter) — after the
// walk, in registration order. "Ready" means no further contribution can
// arrive this pass; a leaf the graph never touched is ready with whatever
// its gradient already holds.
func (t *Tape) OnGradReady(fn func(*Value)) { t.onReady = fn }

// Backward computes gradients of root (which must be a scalar) with respect
// to every reachable Value that requires gradients, firing grad-ready hooks
// along the way. Readiness is tracked by refcounting incoming edges during
// the topological sort and decrementing as the reverse walk consumes them —
// a leaf hits zero exactly when the back closure holding its final
// Accumulate has returned.
func (t *Tape) Backward(root *Value) {
	if root.T.Len() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires a scalar loss, got shape %v", root.T.Shape()))
	}
	pass := passCounter.Add(1)
	if root.requiresGrad {
		t.topo(root, pass)
		root.Grad = tensor.Ones(root.T.Shape()...)
		// Reverse topological order: every node's gradient is complete
		// before its back function runs.
		for i := len(t.order) - 1; i >= 0; i-- {
			n := t.order[i]
			if n.back != nil && n.Grad != nil {
				n.back(n.Grad)
			}
			// Consume n's outgoing edges even when back was skipped: the
			// parents' refcounts counted every edge the sort traversed.
			for _, p := range n.parents {
				if !p.requiresGrad || p.visit != pass {
					continue
				}
				p.pending--
				if p.pending == 0 && p.param && p.back == nil && t.onReady != nil {
					t.onReady(p)
				}
			}
		}
	}
	if t.onReady != nil {
		for _, p := range t.params {
			if p.visit != pass {
				t.onReady(p)
			}
		}
	}
}

// topo fills t.order with the nodes reachable from root in topological
// order (parents before children), stamping each with the pass and counting
// its incoming gradient edges into pending. Iterative DFS — deep networks
// must not recurse — over arenas reused across passes.
func (t *Tape) topo(root *Value, pass uint64) {
	t.order = t.order[:0]
	t.stack = append(t.stack[:0], frame{v: root})
	root.visit = pass
	root.pending = 0
	for len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		if f.next < len(f.v.parents) {
			p := f.v.parents[f.next]
			f.next++
			if !p.requiresGrad {
				continue
			}
			if p.visit != pass {
				p.visit = pass
				p.pending = 0
				t.stack = append(t.stack, frame{v: p})
			}
			p.pending++
			continue
		}
		t.order = append(t.order, f.v)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// --- Core differentiable operators ----------------------------------------

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.T, b.T)
	return NewOp("add", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(g)
		b.Accumulate(g)
	})
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.T, b.T)
	return NewOp("sub", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(g)
		b.Accumulate(tensor.Scale(g, -1))
	})
}

// Mul returns the element-wise product a * b.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.T, b.T)
	return NewOp("mul", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(tensor.Mul(g, b.T))
		b.Accumulate(tensor.Mul(g, a.T))
	})
}

// Scale returns a * s for scalar s.
func Scale(a *Value, s float32) *Value {
	out := tensor.Scale(a.T, s)
	return NewOp("scale", out, []*Value{a}, func(g *tensor.Tensor) {
		a.Accumulate(tensor.Scale(g, s))
	})
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Value, shape ...int) *Value {
	out := a.T.Reshape(shape...)
	origShape := a.T.Shape()
	return NewOp("reshape", out, []*Value{a}, func(g *tensor.Tensor) {
		a.Accumulate(g.Reshape(origShape...))
	})
}

// MatMul returns a @ b for rank-2 operands.
func MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.T, b.T)
	return NewOp("matmul", out, []*Value{a, b}, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.Accumulate(tensor.MatMulTB(g, b.T)) // dA = g @ Bᵀ
		}
		if b.requiresGrad {
			b.Accumulate(tensor.MatMulTA(a.T, g)) // dB = Aᵀ @ g
		}
	})
}

// AddChannel adds a per-channel bias b [C] to activations x [N,C,H,W].
func AddChannel(x, b *Value) *Value {
	out := tensor.AddChannel(x.T, b.T)
	return NewOp("addchannel", out, []*Value{x, b}, func(g *tensor.Tensor) {
		x.Accumulate(g)
		if b.requiresGrad {
			nc := tensor.SumChannelNC(g) // [N,C]
			n, c := nc.Dim(0), nc.Dim(1)
			db := tensor.New(c)
			for i := 0; i < n; i++ {
				for j := 0; j < c; j++ {
					db.Data()[j] += nc.At(i, j)
				}
			}
			b.Accumulate(db)
		}
	})
}

// AddRowBias adds bias b [M] to every row of x [N,M] (dense-layer bias).
func AddRowBias(x, b *Value) *Value {
	n, m := x.T.Dim(0), x.T.Dim(1)
	if b.T.Rank() != 1 || b.T.Dim(0) != m {
		panic(fmt.Sprintf("autograd: AddRowBias bias shape %v does not match [%d,%d]", b.T.Shape(), n, m))
	}
	out := tensor.New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.Data()[i*m+j] = x.T.Data()[i*m+j] + b.T.Data()[j]
		}
	}
	return NewOp("addrowbias", out, []*Value{x, b}, func(g *tensor.Tensor) {
		x.Accumulate(g)
		if b.requiresGrad {
			db := tensor.New(m)
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					db.Data()[j] += g.Data()[i*m+j]
				}
			}
			b.Accumulate(db)
		}
	})
}

// MulChannelNC scales x [N,C,H,W] by s [N,C] broadcast over H,W
// (squeeze-excitation's re-scaling).
func MulChannelNC(x, s *Value) *Value {
	out := tensor.MulChannelNC(x.T, s.T)
	return NewOp("mulchannelnc", out, []*Value{x, s}, func(g *tensor.Tensor) {
		if x.requiresGrad {
			x.AccumulateOwned(tensor.MulChannelNC(g, s.T))
		}
		if s.requiresGrad {
			s.AccumulateOwned(tensor.SumChannelNC(tensor.Mul(g, x.T)))
		}
	})
}

// GlobalAvgPool reduces x [N,C,H,W] to [N,C] by averaging over H and W.
func GlobalAvgPool(x *Value) *Value {
	_, _, h, w := x.T.Dim4()
	inv := 1 / float32(h*w)
	out := tensor.Scale(tensor.SumChannelNC(x.T), inv)
	xShape := x.T.Shape()
	return NewOp("gap", out, []*Value{x}, func(g *tensor.Tensor) {
		n, c := g.Dim(0), g.Dim(1)
		dx := tensor.New(xShape...)
		hw := h * w
		for nc := 0; nc < n*c; nc++ {
			gv := g.Data()[nc] * inv
			base := nc * hw
			for i := 0; i < hw; i++ {
				dx.Data()[base+i] = gv
			}
		}
		x.AccumulateOwned(dx)
	})
}

// Mean returns the scalar mean of all elements of a, shaped [1].
func Mean(a *Value) *Value {
	n := a.T.Len()
	out := tensor.FromSlice([]float32{float32(a.T.Sum() / float64(n))}, 1)
	aShape := a.T.Shape()
	return NewOp("mean", out, []*Value{a}, func(g *tensor.Tensor) {
		gv := g.Data()[0] / float32(n)
		a.Accumulate(tensor.Full(gv, aShape...))
	})
}

// Sum returns the scalar sum of all elements of a, shaped [1].
func Sum(a *Value) *Value {
	out := tensor.FromSlice([]float32{float32(a.T.Sum())}, 1)
	aShape := a.T.Shape()
	return NewOp("sum", out, []*Value{a}, func(g *tensor.Tensor) {
		a.Accumulate(tensor.Full(g.Data()[0], aShape...))
	})
}
