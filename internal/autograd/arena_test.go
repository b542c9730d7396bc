package autograd

import (
	"math/rand"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

func TestOpsInheritTheirFirstParentsArena(t *testing.T) {
	ar, other := tensor.NewArena(), tensor.NewArena()
	w := Leaf(tensor.Full(2, 2, 2), true)        // a parameter: the heap
	x := LeafIn(ar, tensor.Full(1, 2, 2), false) // a batch: carries ar
	if w.Arena() != nil || x.Arena() != ar {
		t.Fatalf("leaf arenas: Leaf %p, LeafIn %p, want nil and %p", w.Arena(), x.Arena(), ar)
	}
	y := Mul(w, x) // w has none, so x's is the first
	if y.Arena() != ar || Add(y, w).Arena() != ar || Mean(y).Arena() != ar {
		t.Fatalf("ops downstream of a LeafIn must allocate from its arena")
	}
	if got := Add(LeafIn(other, tensor.Full(1, 2, 2), false), y).Arena(); got != other {
		t.Fatalf("an op over two arenas took %p, want its first parent's %p", got, other)
	}
	if Mean(Mul(w, w)).Arena() != nil {
		t.Fatalf("a graph with no LeafIn must stay on the heap")
	}
}

// TestReleaseDropsTheGraph: after Release the tape references no node of its
// last pass, so a step's graph is garbage once the engine resets its arena,
// and the traversal buffers keep their capacity for the next pass.
func TestReleaseDropsTheGraph(t *testing.T) {
	w := Leaf(tensor.Full(2, 2, 2), true)
	x := LeafIn(tensor.NewArena(), tensor.Full(1, 2, 2), false)
	var tape Tape
	tape.Backward(Mean(Swish(Mul(w, x))))
	capOrder, capStack := cap(tape.order), cap(tape.stack)
	tape.Release()
	if len(tape.order) != 0 || cap(tape.order) != capOrder || cap(tape.stack) != capStack {
		t.Fatalf("Release: order len %d cap %d (was %d), stack cap %d (was %d)", len(tape.order), cap(tape.order), capOrder, cap(tape.stack), capStack)
	}
	for i, v := range tape.order[:capOrder] {
		if v != nil {
			t.Fatalf("order[%d] still holds %s", i, v.Op())
		}
	}
	for i, f := range tape.stack[:capStack] {
		if f.v != nil {
			t.Fatalf("stack[%d] still holds %s", i, f.v.Op())
		}
	}
}

// seBlock is the residual squeeze-excite block TestOwnedGradientsAreNeverShared
// differentiates: every op that hands its gradient over with AccumulateOwned,
// fed by activations that collect two contributions.
func seBlock(x, w1, wd, gate *Value) *Value {
	pw := tensor.ConvSpec{StrideH: 1, StrideW: 1}
	dw := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	h := Swish(Conv2D(x, w1, pw, bf16.FP32Policy, nil))
	h = Swish(DepthwiseConv2D(h, wd, dw, bf16.FP32Policy, nil))
	s := Sigmoid(MatMul(GlobalAvgPool(h), gate))
	h = MulChannelNC(h, s)
	return Mean(Add(Reshape(h, 2, 3, 4, 4), x))
}

// TestOwnedGradientsAreNeverSharedInAnArena is the arena-fed run of
// TestOwnedGradientsAreNeverShared: the block's input carries a step arena,
// so every activation gradient an op adopts is arena memory. No two nodes may
// share gradient storage, the leaves' gradients must equal a heap run's bit
// for bit, and they must survive the arena's Reset, which poisons everything
// it handed out: a leaf never holds arena memory.
func TestOwnedGradientsAreNeverSharedInAnArena(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xt := tensor.Randn(rng, 1, 2, 3, 4, 4)
	w1 := Leaf(tensor.Randn(rng, 0.5, 3, 3, 1, 1), true)
	wd := Leaf(tensor.Randn(rng, 0.5, 3, 1, 3, 3), true)
	gate := Leaf(tensor.Randn(rng, 1, 3, 3), true)
	params := []*Value{w1, wd, gate}

	grads := func(x *Value) []*tensor.Tensor {
		for _, p := range params {
			p.ZeroGrad()
		}
		root := seBlock(x, w1, wd, gate)
		var tape Tape
		tape.Backward(root)
		owner := map[*float32]*Value{}
		for _, n := range tape.order {
			if n.Grad == nil {
				continue
			}
			key := &n.Grad.Data()[0]
			if prev, dup := owner[key]; dup {
				t.Fatalf("%s and %s share one gradient tensor", prev.Op(), n.Op())
			}
			owner[key] = n
		}
		var out []*tensor.Tensor
		for _, p := range append([]*Value{x}, params...) {
			out = append(out, p.Grad)
		}
		return out
	}
	// The block's input first receives the skip's gradient through
	// Accumulate; a lone Swish hands its input an owned one.
	swish := func(x *Value) *tensor.Tensor {
		Mean(Swish(x)).Backward()
		return x.Grad
	}
	heap := append(grads(Leaf(xt.Clone(), true)), swish(Leaf(xt.Clone(), true)))
	for i, g := range heap {
		heap[i] = g.Clone()
	}
	ar := tensor.NewArena()
	for step := 0; step < 3; step++ { // the first step sizes the arena; the rest reuse it
		got := append(grads(LeafIn(ar, xt.Clone(), true)), swish(LeafIn(ar, xt.Clone(), true)))
		ar.Reset()
		for i, g := range got {
			for j, v := range g.Data() {
				if v != heap[i].Data()[j] {
					t.Fatalf("step %d, leaf %d grad[%d] = %v after the arena's reset, heap run %v", step, i, j, v, heap[i].Data()[j])
				}
			}
		}
	}
}
