package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"effnetscale/internal/autograd"
	"effnetscale/internal/nn"
	"effnetscale/internal/parallel"
	"effnetscale/internal/tensor"
)

// quadParam builds a parameter holding w and a gradient equal to
// dL/dw for L = 0.5*||w - target||^2, i.e. grad = w - target.
func quadParam(w, target []float32) *nn.Param {
	wt := tensor.FromSlice(append([]float32(nil), w...), len(w))
	p := &nn.Param{Name: "w", Value: autograd.Leaf(wt, true)}
	g := tensor.New(len(w))
	for i := range w {
		g.Data()[i] = w[i] - target[i]
	}
	p.Value.Grad = g
	return p
}

func refreshGrad(p *nn.Param, target []float32) {
	for i := range target {
		p.Value.Grad.Data()[i] = p.Data().Data()[i] - target[i]
	}
}

// convergesToTarget runs an optimizer on the quadratic bowl and checks it
// approaches the minimum.
func convergesToTarget(t *testing.T, opt Optimizer, lr float64, steps int, tol float64) {
	t.Helper()
	target := []float32{1, -2, 3, 0.5}
	p := quadParam([]float32{5, 5, -5, -5}, target)
	for s := 0; s < steps; s++ {
		refreshGrad(p, target)
		opt.Step([]*nn.Param{p}, lr)
	}
	for i, tv := range target {
		if d := math.Abs(float64(p.Data().Data()[i] - tv)); d > tol {
			t.Fatalf("%s: w[%d] = %v, want %v (dist %v)", opt.Name(), i, p.Data().Data()[i], tv, d)
		}
	}
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	cases := []struct {
		opt   Optimizer
		lr    float64
		steps int
		tol   float64
	}{
		{NewSGD(0.9, 0), 0.05, 300, 1e-2},
		{NewRMSProp(0), 0.02, 600, 5e-2},
		{NewAdam(0), 0.05, 800, 5e-2},
		{NewLAMB(0), 0.01, 800, 0.3},
		{NewSM3(0), 0.05, 800, 5e-2},
	}
	for _, c := range cases {
		convergesToTarget(t, c.opt, c.lr, c.steps, c.tol)
	}
}

func TestLARSConvergesOnQuadratic(t *testing.T) {
	// LARS scales updates by η·||w||/||g||; with η=0.001 it needs a large
	// nominal LR (that is exactly the paper's point: LR 0.236·batch/256).
	convergesToTarget(t, NewLARS(0), 40, 2000, 0.1)
}

func TestNilGradSkipped(t *testing.T) {
	for _, name := range []string{"sgd", "rmsprop", "lars", "adam", "lamb", "sm3"} {
		opt, ok := ByName(name, 0)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		w := tensor.FromSlice([]float32{1, 2}, 2)
		p := &nn.Param{Name: "w", Value: autograd.Leaf(w, true)} // no grad
		opt.Step([]*nn.Param{p}, 0.1)
		if w.Data()[0] != 1 || w.Data()[1] != 2 {
			t.Fatalf("%s moved weights without a gradient", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("adagrad", 0); ok {
		t.Fatal("unknown optimizer must return !ok")
	}
}

func TestLARSTrustRatio(t *testing.T) {
	o := NewLARS(1e-4)
	// ||w||=10, ||g||=1: ratio = 0.001*10/(1 + 1e-4*10) ≈ 0.00999.
	got := o.TrustRatio(10, 1)
	want := 0.001 * 10 / (1 + 1e-3)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TrustRatio = %v, want %v", got, want)
	}
	// Zero weight norm: neutral ratio.
	if o.TrustRatio(0, 1) != 1 {
		t.Fatal("zero-weight trust ratio must be 1")
	}
}

func TestLARSTrustRatioScaleInvarianceQuick(t *testing.T) {
	// With zero weight decay, the trust ratio is invariant to common
	// rescaling of w and g: ratio(c·w, c·g) = ratio(w, g).
	o := NewLARS(0)
	f := func(wn, gn, c uint16) bool {
		w := float64(wn)/100 + 0.01
		g := float64(gn)/100 + 0.01
		scale := float64(c)/100 + 0.5
		a := o.TrustRatio(w, g)
		b := o.TrustRatio(scale*w, scale*g)
		return math.Abs(a-b) < 1e-9*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLARSSkipsAdaptationForNoAdapt(t *testing.T) {
	// A NoAdapt param must receive a plain momentum-SGD update at the
	// rescaled LR (lr × UnadaptedLRScale), independent of weight/grad
	// norms — LARS-style trust adaptation must not apply.
	o := NewLARS(1e-4)
	w := tensor.FromSlice([]float32{100, 100}, 2)
	p := &nn.Param{Name: "bn.gamma", Value: autograd.Leaf(w, true), NoAdapt: true}
	p.Value.Grad = tensor.FromSlice([]float32{1, 1}, 2)
	o.Step([]*nn.Param{p}, 0.5)
	want := float32(100) - float32(0.5*o.UnadaptedLRScale)
	if w.Data()[0] != want {
		t.Fatalf("NoAdapt step moved w to %v, want %v", w.Data()[0], want)
	}
	// The step must be far smaller than the raw LR would give: that raw
	// step is what blows up BN parameters under LARS-scale LRs.
	if raw := float32(100 - 0.5); w.Data()[0] <= raw {
		t.Fatalf("NoAdapt step used raw LR: w = %v", w.Data()[0])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	// With zero gradient signal... use tiny constant gradient zero: weight
	// decay alone must pull weights toward zero for SGD.
	o := NewSGD(0, 0.1)
	w := tensor.FromSlice([]float32{10}, 1)
	p := &nn.Param{Name: "w", Value: autograd.Leaf(w, true)}
	p.Value.Grad = tensor.New(1) // zero gradient
	before := w.Data()[0]
	o.Step([]*nn.Param{p}, 0.5)
	if w.Data()[0] >= before {
		t.Fatalf("weight decay did not shrink weight: %v -> %v", before, w.Data()[0])
	}
	// NoAdapt params must NOT be decayed.
	w2 := tensor.FromSlice([]float32{10}, 1)
	p2 := &nn.Param{Name: "b", Value: autograd.Leaf(w2, true), NoAdapt: true}
	p2.Value.Grad = tensor.New(1)
	o.Step([]*nn.Param{p2}, 0.5)
	if w2.Data()[0] != 10 {
		t.Fatalf("NoAdapt weight was decayed: %v", w2.Data()[0])
	}
}

func TestSM3MemoryFootprint(t *testing.T) {
	// SM3's raison d'être: sub-linear optimizer state. For a [256,1024]
	// matrix it keeps 256+1024 accumulators, not 256*1024.
	if got := MemoryElems([]int{256, 1024}); got != 1280 {
		t.Fatalf("MemoryElems = %d, want 1280", got)
	}
	o := NewSM3(0)
	w := tensor.New(8, 16)
	p := &nn.Param{Name: "w", Value: autograd.Leaf(w, true)}
	p.Value.Grad = tensor.Ones(8, 16)
	o.Step([]*nn.Param{p}, 0.1)
	acc := o.accums[p]
	if len(acc) != 2 || len(acc[0]) != 8 || len(acc[1]) != 16 {
		t.Fatalf("SM3 accumulator shapes wrong: %d dims", len(acc))
	}
}

func TestSM3AccumulatorsGrowMonotonically(t *testing.T) {
	o := NewSM3(0)
	rng := rand.New(rand.NewSource(1))
	w := tensor.Randn(rng, 1, 4, 4)
	p := &nn.Param{Name: "w", Value: autograd.Leaf(w, true)}
	var prev []float32
	for s := 0; s < 5; s++ {
		p.Value.Grad = tensor.Randn(rng, 1, 4, 4)
		o.Step([]*nn.Param{p}, 0.01)
		cur := append([]float32(nil), o.accums[p][0]...)
		if prev != nil {
			for i := range cur {
				if cur[i] < prev[i] {
					t.Fatalf("SM3 row accumulator %d decreased: %v -> %v", i, prev[i], cur[i])
				}
			}
		}
		prev = cur
	}
}

func TestRMSPropMatchesManualStep(t *testing.T) {
	// Single-element hand computation of the TF-style update.
	o := &RMSProp{Decay: 0.9, Momentum: 0.0, Eps: 1e-3, WeightDecay: 0, slots: state{}}
	w := tensor.FromSlice([]float32{1}, 1)
	p := &nn.Param{Name: "w", Value: autograd.Leaf(w, true)}
	p.Value.Grad = tensor.FromSlice([]float32{2}, 1)
	o.Step([]*nn.Param{p}, 0.1)
	// ms = 0.1*4 = 0.4; step = 0.1*2/(sqrt(0.4)+1e-3)
	want := 1 - float32(0.1*2/(math.Sqrt(0.4)+1e-3))
	if math.Abs(float64(w.Data()[0]-want)) > 1e-6 {
		t.Fatalf("RMSProp step = %v, want %v", w.Data()[0], want)
	}
}

func TestOptimizerStateIsPerParam(t *testing.T) {
	// Two parameters must not share momentum buffers.
	o := NewSGD(0.9, 0)
	w1 := tensor.FromSlice([]float32{0}, 1)
	w2 := tensor.FromSlice([]float32{0}, 1)
	p1 := &nn.Param{Name: "a", Value: autograd.Leaf(w1, true)}
	p2 := &nn.Param{Name: "b", Value: autograd.Leaf(w2, true)}
	p1.Value.Grad = tensor.FromSlice([]float32{1}, 1)
	p2.Value.Grad = tensor.FromSlice([]float32{0}, 1)
	o.Step([]*nn.Param{p1, p2}, 1)
	if w2.Data()[0] != 0 {
		t.Fatalf("p2 moved by p1's momentum: %v", w2.Data()[0])
	}
	if w1.Data()[0] != -1 {
		t.Fatalf("p1 step = %v, want -1", w1.Data()[0])
	}
}

// stepParams builds weights and gradients whose magnitudes span 2^±10: two
// adapted tensors and one NoAdapt vector.
func stepParams(seed int64) []*nn.Param {
	rng := rand.New(rand.NewSource(seed))
	var ps []*nn.Param
	for i, shape := range [][]int{{64, 40}, {300}, {7}} {
		w, g := tensor.New(shape...), tensor.New(shape...)
		for j := range w.Data() {
			w.Data()[j] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10))
			g.Data()[j] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10))
		}
		p := &nn.Param{Name: string(rune('a' + i)), Value: autograd.Leaf(w, true), NoAdapt: i == 2}
		p.Value.Grad = g
		ps = append(ps, p)
	}
	return ps
}

// tieLR returns a learning rate lr for which lr·norm, evaluated in float64,
// lies exactly halfway between two adjacent float32 values.
func tieLR(norm float64) (float64, bool) {
	lo := float32(norm)
	mid := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
	lr := mid / norm
	for k := 0; k < 8; k++ {
		switch p := lr * norm; {
		case p == mid:
			return lr, true
		case p < mid:
			lr = math.Nextafter(lr, math.Inf(1))
		default:
			lr = math.Nextafter(lr, math.Inf(-1))
		}
	}
	return 0, false
}

func TestTrustRatioStepIgnoresWorkerBound(t *testing.T) {
	// LARS and LAMB scale a parameter's step by the norm of its weights.
	// With a one-hot unit gradient, LARS at η = 1 without decay steps by
	// float32(lr·‖w‖) and LAMB at β1 = β2 = 0, ε = 1 by float32(lr·2‖w‖)/2.
	// lr puts that product (with the index-order norm) exactly on a float32
	// rounding tie, so a norm summed in any other order — chunked by the
	// worker bound, say — moves the step by one ulp about half the time.
	// Every weight must come out identical at worker bounds 1, 2 and 4.
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(1))
	type tie struct {
		w    []float32
		norm float64
	}
	var ties []tie
	for len(ties) < 32 {
		w := make([]float32, 257+rng.Intn(3000))
		var sq float64
		for j := range w {
			w[j] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10))
			sq += float64(float64(w[j]) * float64(w[j]))
		}
		// Both optimizers' products must land on ties.
		if _, ok := tieLR(math.Sqrt(sq)); !ok {
			continue
		}
		if _, ok := tieLR(2 * math.Sqrt(sq)); ok {
			ties = append(ties, tie{w, math.Sqrt(sq)})
		}
	}
	for _, tc := range []struct {
		name   string
		factor float64
		opt    func() Optimizer
	}{
		{"lars", 1, func() Optimizer { return &LARS{Eta: 1, Momentum: 0.9, slots: state{}} }},
		{"lamb", 2, func() Optimizer { return &LAMB{Eps: 1, slots: state{}} }},
	} {
		var ref [][]float32
		for _, workers := range []int{1, 2, 4} {
			parallel.SetMaxWorkers(workers)
			var got [][]float32
			for _, c := range ties {
				lr, _ := tieLR(tc.factor * c.norm)
				p := quadParam(c.w, c.w)
				p.Value.Grad.Data()[0] = 1
				tc.opt().Step([]*nn.Param{p}, lr)
				got = append(got, p.Data().Data())
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range got {
				for j, v := range got[i] {
					if math.Float32bits(v) != math.Float32bits(ref[i][j]) {
						t.Fatalf("%s: tie %d w[%d] = %v at %d workers, %v at 1", tc.name, i, j, v, workers, ref[i][j])
					}
				}
			}
		}
	}
}

func TestOptimizerStepAllocatesNothing(t *testing.T) {
	// Once every slot exists, a step allocates nothing: LAMB's update and
	// SM3's odometer reuse per-optimizer scratch.
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	for _, name := range []string{"sgd", "rmsprop", "lars", "adam", "lamb", "sm3"} {
		opt, _ := ByName(name, 1e-4)
		ps := stepParams(2)
		opt.Step(ps, 1e-3)
		if allocs := testing.AllocsPerRun(20, func() { opt.Step(ps, 1e-3) }); allocs != 0 {
			t.Errorf("%s: %v allocations per warm step, want 0", name, allocs)
		}
	}
}
