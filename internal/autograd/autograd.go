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
	// arena is the step arena this node's consumers allocate from: set on a
	// leaf by LeafIn, inherited by every op result from its first parent
	// that has one (nil = the heap).
	arena *tensor.Arena
}

// Leaf wraps t as a graph input. If requiresGrad is true, Backward will
// accumulate into its Grad (model parameters); otherwise the node blocks
// gradient flow (inputs, labels).
func Leaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{T: t, requiresGrad: requiresGrad, op: "leaf"}
}

// Constant wraps t as a non-differentiable input.
func Constant(t *tensor.Tensor) *Value { return Leaf(t, false) }

// LeafIn is Leaf for a graph that allocates from the step arena a: every op
// downstream of the leaf takes its output, its backward temporaries and its
// node's first gradient from a, and so must not be read after a's next Reset.
// The leaf's own gradient is still heap memory. The engine feeds each
// micro-batch through a LeafIn over the replica's arena.
func LeafIn(a *tensor.Arena, t *tensor.Tensor, requiresGrad bool) *Value {
	v := Leaf(t, requiresGrad)
	v.arena = a
	return v
}

// Arena returns the step arena ops over v allocate from (nil = the heap).
// Ops outside this package, such as batch norm, allocate their outputs and
// temporaries from their first input's arena, as NewOp's result inherits it.
func (v *Value) Arena() *tensor.Arena { return v.arena }

// arenaOf returns the arena of the first of vs that has one: where an op
// over vs allocates, and what NewOp hands its result.
func arenaOf(vs ...*Value) *tensor.Arena {
	for _, v := range vs {
		if v.arena != nil {
			return v.arena
		}
	}
	return nil
}

// isLeaf reports whether v is a graph input.
func (v *Value) isLeaf() bool { return len(v.parents) == 0 }

// gradArena is where v's gradient is allocated: v's step arena for an op
// result, the heap for a leaf, whose gradient outlives the step (parameters
// accumulate across micro-batches and feed the optimizer).
func (v *Value) gradArena() *tensor.Arena {
	if v.isLeaf() {
		return nil
	}
	return v.arena
}

// clone copies t into a fresh tensor from ar.
func clone(ar *tensor.Arena, t *tensor.Tensor) *tensor.Tensor {
	c := ar.New(t.Shape()...)
	copy(c.Data(), t.Data())
	return c
}

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
// non-differentiable ops. The node requires grad iff any parent does, and
// inherits the step arena of its first parent that has one: an op allocates
// out, and back its temporaries, from that same arena (see Arena).
func NewOp(op string, out *tensor.Tensor, parents []*Value, back func(grad *tensor.Tensor)) *Value {
	req := false
	for _, p := range parents {
		if p.requiresGrad {
			req = true
			break
		}
	}
	v := &Value{T: out, requiresGrad: req, parents: parents, op: op, arena: arenaOf(parents...)}
	if req {
		v.back = back
	}
	return v
}

// Accumulate adds g into v's gradient if v requires one. Ops call this from
// their backward closures. A first contribution is copied: onto the heap for
// a leaf, into v's step arena for an op result. A fresh bound gradient is
// overwritten in place — the same bits Clone used to produce, without the
// allocation.
func (v *Value) Accumulate(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = clone(v.gradArena(), g)
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
// contribution to an op result adopts g itself as its gradient instead of
// cloning it (the same bits, one allocation and one copy fewer per
// activation). Later contributions add into the adopted tensor, which is why
// the caller must let go of it. A leaf copies g onto the heap as Accumulate
// does: g may be step-arena memory, and a leaf's gradient outlives the step.
// Ops that forward their own incoming gradient (Add, Reshape, AddChannel,
// ...) must keep using Accumulate: that tensor belongs to the node it was
// accumulated for.
func (v *Value) AccumulateOwned(g *tensor.Tensor) {
	if v.requiresGrad && v.Grad == nil && !v.isLeaf() {
		v.Grad = g
		return
	}
	v.Accumulate(g)
}

// Backward computes gradients of v (which must be a scalar: one element)
// with respect to every reachable Value that requires gradients. Callers
// that need grad-ready hooks or want the traversal buffers reused across
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

// Tape owns a backward traversal: reusable DFS buffers (no per-step visited
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

	// order and stack are the traversal buffers, reused across passes.
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
		root.Grad = root.gradArena().New(root.T.Shape()...)
		root.Grad.Fill(1)
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

// Release drops the tape's references to the nodes of its last pass, keeping
// the buffers' capacity. Until then that graph, and every tensor it holds,
// stays reachable: a step's heap memory would survive into the next step, and
// a garbage collection then would size the heap for two steps. The engine
// calls it when it resets a micro-batch's arena.
func (t *Tape) Release() {
	clear(t.order)
	t.order = t.order[:0]
	clear(t.stack[:cap(t.stack)])
}

// topo fills t.order with the nodes reachable from root in topological
// order (parents before children), stamping each with the pass and counting
// its incoming gradient edges into pending. Iterative DFS — deep networks
// must not recurse — over buffers reused across passes.
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
//
// Every op takes its output, its backward temporaries and its gradient
// tensors from the arena of its first input that has one (arenaOf), through
// the tensor kernels' Into forms; with no arena they are heap tensors, as
// before.

// scaled returns t*s in a fresh tensor from ar: tensor.Scale's bits.
func scaled(ar *tensor.Arena, t *tensor.Tensor, s float32) *tensor.Tensor {
	c := clone(ar, t)
	c.ScaleInPlace(s)
	return c
}

// product returns the element-wise a*b in a fresh tensor from ar.
func product(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	out := ar.New(a.Shape()...)
	tensor.MulInto(out, a, b)
	return out
}

// full returns a tensor of the given shape filled with v, from ar.
func full(ar *tensor.Arena, v float32, shape ...int) *tensor.Tensor {
	out := ar.New(shape...)
	out.Fill(v)
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Value) *Value {
	ar := arenaOf(a, b)
	out := clone(ar, a.T) // a[i] + b[i], as tensor.Add adds
	tensor.AddInto(out, b.T)
	return NewOp("add", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(g)
		b.Accumulate(g)
	})
}

// Sub returns a - b element-wise.
func Sub(a, b *Value) *Value {
	ar := arenaOf(a, b)
	out := ar.New(a.T.Shape()...)
	tensor.SubInto(out, a.T, b.T)
	return NewOp("sub", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(g)
		b.Accumulate(scaled(ar, g, -1))
	})
}

// Mul returns the element-wise product a * b.
func Mul(a, b *Value) *Value {
	ar := arenaOf(a, b)
	out := product(ar, a.T, b.T)
	return NewOp("mul", out, []*Value{a, b}, func(g *tensor.Tensor) {
		a.Accumulate(product(ar, g, b.T))
		b.Accumulate(product(ar, g, a.T))
	})
}

// Scale returns a * s for scalar s.
func Scale(a *Value, s float32) *Value {
	ar := a.arena
	out := scaled(ar, a.T, s)
	return NewOp("scale", out, []*Value{a}, func(g *tensor.Tensor) {
		a.Accumulate(scaled(ar, g, s))
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
	if a.T.Rank() != 2 || b.T.Rank() != 2 {
		panic(fmt.Sprintf("autograd: MatMul requires rank-2 operands, got %v and %v", a.T.Shape(), b.T.Shape()))
	}
	ar := arenaOf(a, b)
	out := ar.New(a.T.Dim(0), b.T.Dim(1))
	tensor.MatMulInto(out, a.T, b.T, false)
	return NewOp("matmul", out, []*Value{a, b}, func(g *tensor.Tensor) {
		if a.requiresGrad {
			da := ar.New(a.T.Shape()...)
			tensor.MatMulTBInto(da, g, b.T) // dA = g @ Bᵀ
			a.Accumulate(da)
		}
		if b.requiresGrad {
			db := ar.New(b.T.Shape()...)
			tensor.MatMulTAInto(db, a.T, g) // dB = Aᵀ @ g
			b.Accumulate(db)
		}
	})
}

// AddChannel adds a per-channel bias b [C] to activations x [N,C,H,W].
func AddChannel(x, b *Value) *Value {
	ar := arenaOf(x, b)
	out := ar.New(x.T.Shape()...)
	tensor.AddChannelInto(out, x.T, b.T)
	return NewOp("addchannel", out, []*Value{x, b}, func(g *tensor.Tensor) {
		x.Accumulate(g)
		if b.requiresGrad {
			n, c, _, _ := g.Dim4()
			nc := ar.New(n, c)
			tensor.SumChannelNCInto(nc, g)
			db := ar.New(c)
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
	ar := arenaOf(x, b)
	out := ar.New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.Data()[i*m+j] = x.T.Data()[i*m+j] + b.T.Data()[j]
		}
	}
	return NewOp("addrowbias", out, []*Value{x, b}, func(g *tensor.Tensor) {
		x.Accumulate(g)
		if b.requiresGrad {
			db := ar.New(m)
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
	ar := arenaOf(x, s)
	out := ar.New(x.T.Shape()...)
	tensor.MulChannelNCInto(out, x.T, s.T)
	return NewOp("mulchannelnc", out, []*Value{x, s}, func(g *tensor.Tensor) {
		if x.requiresGrad {
			dx := ar.New(x.T.Shape()...)
			tensor.MulChannelNCInto(dx, g, s.T)
			x.AccumulateOwned(dx)
		}
		if s.requiresGrad {
			ds := ar.New(s.T.Shape()...)
			tensor.SumChannelNCInto(ds, product(ar, g, x.T))
			s.AccumulateOwned(ds)
		}
	})
}

// GlobalAvgPool reduces x [N,C,H,W] to [N,C] by averaging over H and W.
func GlobalAvgPool(x *Value) *Value {
	n, c, h, w := x.T.Dim4()
	inv := 1 / float32(h*w)
	ar := x.arena
	out := ar.New(n, c)
	tensor.SumChannelNCInto(out, x.T)
	out.ScaleInPlace(inv)
	xShape := x.T.Shape()
	return NewOp("gap", out, []*Value{x}, func(g *tensor.Tensor) {
		dx := ar.New(xShape...)
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
	ar := a.arena
	out := full(ar, float32(a.T.Sum()/float64(n)), 1)
	aShape := a.T.Shape()
	return NewOp("mean", out, []*Value{a}, func(g *tensor.Tensor) {
		gv := g.Data()[0] / float32(n)
		a.Accumulate(full(ar, gv, aShape...))
	})
}

// Sum returns the scalar sum of all elements of a, shaped [1].
func Sum(a *Value) *Value {
	ar := a.arena
	out := full(ar, float32(a.T.Sum()), 1)
	aShape := a.T.Shape()
	return NewOp("sum", out, []*Value{a}, func(g *tensor.Tensor) {
		a.Accumulate(full(ar, g.Data()[0], aShape...))
	})
}
