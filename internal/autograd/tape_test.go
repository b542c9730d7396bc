package autograd

import (
	"math/rand"
	"testing"

	"effnetscale/internal/bf16"
	"effnetscale/internal/tensor"
)

// chain builds a depth-deep chain loss = mean(((x*w0)*w1)*...*wN) over
// registered scalar-shaped parameters and returns the parameters in
// forward order (w0 closest to the input).
func chain(depth int) (params []*Value, loss func() *Value) {
	x := Constant(tensor.Full(0.5, 2, 2))
	for i := 0; i < depth; i++ {
		params = append(params, Leaf(tensor.Full(1.1, 2, 2), true))
	}
	loss = func() *Value {
		v := x
		for _, w := range params {
			v = Mul(v, w)
		}
		return Mean(v)
	}
	return params, loss
}

func TestGradReadyFiresOncePerBackwardInReverseOrder(t *testing.T) {
	params, loss := chain(5)
	tape := NewTape()
	tape.Register(params...)
	var fired []*Value
	tape.OnGradReady(func(v *Value) { fired = append(fired, v) })

	for pass := 0; pass < 3; pass++ {
		fired = fired[:0]
		for _, p := range params {
			p.ZeroGrad()
		}
		tape.Backward(loss())
		if len(fired) != len(params) {
			t.Fatalf("pass %d: %d hooks fired, want %d", pass, len(fired), len(params))
		}
		// The chain multiplies w0 first, so backward reaches w4 (the
		// output side) first: hooks fire in reverse forward order.
		for i, v := range fired {
			if want := params[len(params)-1-i]; v != want {
				t.Fatalf("pass %d: hook %d fired for param %d, want %d", pass, i, indexOf(params, v), len(params)-1-i)
			}
			if v.Grad == nil {
				t.Fatalf("pass %d: hook %d fired before any gradient arrived", pass, i)
			}
		}
	}
}

func indexOf(params []*Value, v *Value) int {
	for i, p := range params {
		if p == v {
			return i
		}
	}
	return -1
}

func TestGradReadyMultiUseLeafFiresAfterLastUse(t *testing.T) {
	// w is consumed twice: loss = mean(x*w + y*w). The hook must fire only
	// after both contributions accumulated.
	w := Leaf(tensor.Full(2, 3), true)
	x := Constant(tensor.Full(1, 3))
	y := Constant(tensor.Full(10, 3))
	tape := NewTape()
	tape.Register(w)
	fired := 0
	tape.OnGradReady(func(v *Value) {
		fired++
		// d/dw mean(x*w + y*w) = (x+y)/3 = 11/3 per element.
		for _, g := range v.Grad.Data() {
			if g < 3.6 || g > 3.8 {
				t.Fatalf("hook saw partial gradient %v, want ~3.667", g)
			}
		}
	})
	tape.Backward(Mean(Add(Mul(x, w), Mul(y, w))))
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestGradReadySkipsNonGradLeavesAndFiresUnreached(t *testing.T) {
	used := Leaf(tensor.Full(1, 2), true)
	unused := Leaf(tensor.Full(1, 2), true) // registered, never in the graph
	frozen := Constant(tensor.Full(1, 2))   // requiresGrad=false: not registrable
	tape := NewTape()
	tape.Register(used, unused)
	var fired []*Value
	tape.OnGradReady(func(v *Value) { fired = append(fired, v) })
	tape.Backward(Mean(Mul(used, frozen)))
	if len(fired) != 2 || fired[0] != used || fired[1] != unused {
		t.Fatalf("hooks fired for %d leaves in the wrong order (used first, then the unreached leaf)", len(fired))
	}
	if unused.Grad != nil {
		t.Fatalf("unreached leaf grew a gradient")
	}
}

func TestRegisterRejectsNonGradAndDoubles(t *testing.T) {
	tape := NewTape()
	mustPanic(t, "non-grad leaf", func() { tape.Register(Constant(tensor.Full(1, 1))) })
	w := Leaf(tensor.Full(1, 1), true)
	tape.Register(w)
	mustPanic(t, "double registration", func() { tape.Register(w) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

func TestBindGradMatchesUnboundBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wt := tensor.Randn(rng, 1, 4, 4)
	xt := tensor.Randn(rng, 1, 4, 4)

	build := func(w *Value) func() *Value {
		x := Constant(xt)
		return func() *Value { return Mean(Mul(Mul(x, w), w)) }
	}

	plain := Leaf(wt.Clone(), true)
	lossP := build(plain)
	bound := Leaf(wt.Clone(), true)
	buf := make([]float32, wt.Len())
	bound.BindGrad(tensor.FromSlice(buf, 4, 4))
	lossB := build(bound)

	// Two accumulation windows of two passes each, ZeroGrad between
	// windows — the engine's micro-batch pattern.
	for window := 0; window < 2; window++ {
		plain.ZeroGrad()
		bound.ZeroGrad()
		for pass := 0; pass < 2; pass++ {
			lossP().Backward()
			lossB().Backward()
		}
		for i, g := range plain.Grad.Data() {
			if buf[i] != g {
				t.Fatalf("window %d: bound grad[%d] = %v, plain = %v", window, i, buf[i], g)
			}
		}
	}
	if &bound.Grad.Data()[0] != &buf[0] {
		t.Fatalf("bound gradient storage was reallocated")
	}
}

func TestTapeReusesArenas(t *testing.T) {
	params, loss := chain(30)
	tape := NewTape()
	tape.Register(params...)
	tape.Backward(loss())
	capOrder, capStack := cap(tape.order), cap(tape.stack)
	if capOrder == 0 || capStack == 0 {
		t.Fatalf("arenas empty after a pass")
	}
	for i := 0; i < 5; i++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		tape.Backward(loss())
	}
	if cap(tape.order) != capOrder || cap(tape.stack) != capStack {
		t.Fatalf("arenas reallocated across passes: order %d→%d, stack %d→%d",
			capOrder, cap(tape.order), capStack, cap(tape.stack))
	}
}

func TestTapeBackwardMatchesValueBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	wt := tensor.Randn(rng, 1, 3, 3)
	xt := tensor.Randn(rng, 1, 3, 3)

	a := Leaf(wt.Clone(), true)
	Mean(Mul(Constant(xt), a)).Backward()

	b := Leaf(wt.Clone(), true)
	tape := NewTape()
	tape.Register(b)
	tape.Backward(Mean(Mul(Constant(xt), b)))

	for i := range a.Grad.Data() {
		if a.Grad.Data()[i] != b.Grad.Data()[i] {
			t.Fatalf("grad[%d]: Value.Backward %v vs Tape.Backward %v", i, a.Grad.Data()[i], b.Grad.Data()[i])
		}
	}
}

// TestAccumulateOwnedAdoptsThenAdds pins the ownership-transfer contract: an
// op result adopts a first contribution (no clone), a later one adds into the
// adopted tensor and leaves its own argument and every sibling's gradient
// alone, a leaf copies its first contribution onto the heap, and a bound
// gradient still copies into its pinned storage.
func TestAccumulateOwnedAdoptsThenAdds(t *testing.T) {
	vec := func(vs ...float32) *tensor.Tensor { return tensor.FromSlice(vs, len(vs)) }
	node := func() *Value {
		return NewOp("node", tensor.New(3), []*Value{Leaf(tensor.New(3), true)}, func(*tensor.Tensor) {})
	}
	x, sibling := node(), node()

	first, sib, second := vec(1, 2, 3), vec(10, 20, 30), vec(100, 200, 300)
	x.AccumulateOwned(first)
	sibling.AccumulateOwned(sib)
	if x.Grad != first || sibling.Grad != sib {
		t.Fatalf("first contributions were not adopted")
	}
	x.AccumulateOwned(second)
	for i, want := range []float32{101, 202, 303} {
		if x.Grad.Data()[i] != want {
			t.Fatalf("x.Grad[%d] = %v, want %v", i, x.Grad.Data()[i], want)
		}
	}
	if x.Grad != first {
		t.Fatalf("second contribution replaced the adopted gradient")
	}
	if second.Data()[0] != 100 || sib.Data()[0] != 10 {
		t.Fatalf("a later contribution was mutated: second=%v sibling=%v", second.Data(), sib.Data())
	}

	Constant(tensor.New(3)).AccumulateOwned(vec(1, 1, 1)) // no gradient wanted: a no-op

	leaf := Leaf(tensor.New(3), true)
	g0 := vec(4, 5, 6)
	leaf.AccumulateOwned(g0)
	if leaf.Grad == g0 || leaf.Grad.Data()[2] != 6 {
		t.Fatalf("a leaf must copy its first contribution, got %v", leaf.Grad.Data())
	}

	bound := Leaf(tensor.New(3), true)
	buf := make([]float32, 3)
	bound.BindGrad(tensor.FromSlice(buf, 3))
	g := vec(7, 8, 9)
	bound.AccumulateOwned(g)
	if &bound.Grad.Data()[0] != &buf[0] || buf[2] != 9 {
		t.Fatalf("bound gradient must copy into its pinned storage, got %v", buf)
	}
}

// TestOwnedGradientsAreNeverShared runs a residual squeeze-excite block —
// every op that hands its gradient over with AccumulateOwned, fed by
// activations that collect two contributions — and checks that after
// Backward no two nodes hold the same gradient storage, and that the
// gradients still match finite differences (a tensor adopted twice, or
// mutated after adoption, would corrupt them).
func TestOwnedGradientsAreNeverShared(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := Leaf(tensor.Randn(rng, 1, 2, 3, 4, 4), true)
	w1 := Leaf(tensor.Randn(rng, 0.5, 3, 3, 1, 1), true)
	wd := Leaf(tensor.Randn(rng, 0.5, 3, 1, 3, 3), true)
	gate := Leaf(tensor.Randn(rng, 1, 3, 3), true)
	pw := tensor.ConvSpec{StrideH: 1, StrideW: 1}
	dw := tensor.ConvSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	loss := func() *Value {
		h := Swish(Conv2D(x, w1, pw, bf16.FP32Policy, nil))
		h = Swish(DepthwiseConv2D(h, wd, dw, bf16.FP32Policy, nil))
		s := Sigmoid(MatMul(GlobalAvgPool(h), gate)) // h feeds the squeeze ...
		h = MulChannelNC(h, s)                       // ... and the excite
		return Mean(Add(Reshape(h, 2, 3, 4, 4), x))  // x feeds the block and the skip
	}
	params := []*Value{x, w1, wd, gate}
	gradCheck(t, "residual SE block", params, loss, 5e-3)

	for _, p := range params {
		p.ZeroGrad()
	}
	root := loss()
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
	if len(owner) < 10 {
		t.Fatalf("walked only %d gradients; the graph should hold more", len(owner))
	}
}
