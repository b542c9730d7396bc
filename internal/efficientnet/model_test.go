package efficientnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"effnetscale/internal/autograd"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

func TestRoundFilters(t *testing.T) {
	cases := []struct {
		filters int
		coeff   float64
		divisor int
		want    int
	}{
		{32, 1.0, 8, 32},
		{32, 1.1, 8, 32}, // 35.2 → 32 (within 90%)
		{32, 1.6, 8, 48}, // B5 stem: 51.2 → 48
		{16, 1.1, 8, 16}, // B2: 17.6 → 16
		{320, 1.1, 8, 352},
		{1280, 1.6, 8, 2048},
		{40, 1.2, 8, 48},
	}
	for _, c := range cases {
		if got := RoundFilters(c.filters, c.coeff, c.divisor); got != c.want {
			t.Errorf("RoundFilters(%d, %v, %d) = %d, want %d", c.filters, c.coeff, c.divisor, got, c.want)
		}
	}
}

func TestRoundFiltersInvariantsQuick(t *testing.T) {
	f := func(filters uint8, coeffPct uint8) bool {
		fl := int(filters)%512 + 8
		coeff := 0.1 + float64(coeffPct%40)/10 // 0.1 .. 4.0
		got := RoundFilters(fl, coeff, 8)
		if got%8 != 0 && coeff != 1 {
			return false // always a multiple of the divisor
		}
		return float64(got) >= 0.9*coeff*float64(fl) // never below 90% of target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundRepeats(t *testing.T) {
	if got := RoundRepeats(3, 2.2); got != 7 {
		t.Errorf("RoundRepeats(3, 2.2) = %d, want 7", got)
	}
	if got := RoundRepeats(4, 1.2); got != 5 {
		t.Errorf("RoundRepeats(4, 1.2) = %d, want 5", got)
	}
	if got := RoundRepeats(2, 1.0); got != 2 {
		t.Errorf("RoundRepeats(2, 1.0) = %d, want 2", got)
	}
}

func TestFamilyStatsMatchPublishedSizes(t *testing.T) {
	// Published parameter counts (Tan & Le): B0 5.3M, B2 9.2M, B5 30M.
	// Published FLOPs (multiply-add convention): B0 0.39G, B2 1.0G, B5 9.9G.
	cases := []struct {
		name       string
		wantParams float64 // millions
		wantFLOPs  float64 // billions
	}{
		{"b0", 5.3e6, 0.39e9},
		{"b2", 9.2e6, 1.0e9},
		{"b5", 30e6, 9.9e9},
	}
	for _, c := range cases {
		cfg, ok := ConfigByName(c.name, 1000)
		if !ok {
			t.Fatalf("missing config %s", c.name)
		}
		s := ComputeStats(cfg)
		if rel := math.Abs(float64(s.Params)-c.wantParams) / c.wantParams; rel > 0.10 {
			t.Errorf("%s params = %d, want ≈%.2gM (off by %.1f%%)", c.name, s.Params, c.wantParams/1e6, rel*100)
		}
		if rel := math.Abs(s.FLOPsPerImg-c.wantFLOPs) / c.wantFLOPs; rel > 0.15 {
			t.Errorf("%s FLOPs = %.3g, want ≈%.3g (off by %.1f%%)", c.name, s.FLOPsPerImg, c.wantFLOPs, rel*100)
		}
	}
}

func TestStatsMatchBuiltModel(t *testing.T) {
	// The analytic counter must agree exactly with the real builder.
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"pico", "nano"} {
		cfg, _ := ConfigByName(name, 10)
		m := New(rng, cfg)
		s := ComputeStats(cfg)
		if m.NumParams() != s.Params {
			t.Errorf("%s: built model has %d params, analytic says %d", name, m.NumParams(), s.Params)
		}
		if len(m.Blocks) != s.NumBlocks {
			t.Errorf("%s: built model has %d blocks, analytic says %d", name, len(m.Blocks), s.NumBlocks)
		}
	}
}

func TestB0HasSixteenBlocks(t *testing.T) {
	cfg, _ := ConfigByName("b0", 1000)
	s := ComputeStats(cfg)
	if s.NumBlocks != 16 {
		t.Fatalf("B0 must have 16 MBConv blocks, got %d", s.NumBlocks)
	}
}

func TestPicoForwardShapesAndDeterminism(t *testing.T) {
	cfg, _ := ConfigByName("pico", 10)
	m := New(rand.New(rand.NewSource(42)), cfg)
	x := autograd.Constant(tensor.Randn(rand.New(rand.NewSource(7)), 1, 2, 3, cfg.Resolution, cfg.Resolution))
	ctx := nn.EvalCtx()
	y := m.Forward(ctx, x)
	if y.T.Dim(0) != 2 || y.T.Dim(1) != 10 {
		t.Fatalf("logits shape %v, want [2 10]", y.T.Shape())
	}
	// Eval forward must be deterministic.
	y2 := m.Forward(ctx, x)
	for i := range y.T.Data() {
		if y.T.Data()[i] != y2.T.Data()[i] {
			t.Fatal("eval forward is nondeterministic")
		}
	}
}

func TestPicoTrainStepReducesLoss(t *testing.T) {
	// One model, one small batch, plain SGD on the raw gradients: the loss
	// on that batch must go down. End-to-end sanity of the whole
	// model+autograd stack.
	cfg, _ := ConfigByName("pico", 4)
	m := New(rand.New(rand.NewSource(3)), cfg)
	rng := rand.New(rand.NewSource(11))
	xT := tensor.Randn(rng, 0.5, 4, 3, cfg.Resolution, cfg.Resolution)
	labels := []int{0, 1, 2, 3}
	ctx := &nn.Ctx{Training: true, RNG: rand.New(rand.NewSource(5))}

	lossAt := func() float64 {
		x := autograd.Constant(xT)
		loss := autograd.SoftmaxCrossEntropy(m.Forward(ctx, x), labels, 0)
		return float64(loss.T.Data()[0])
	}

	before := lossAt()
	for step := 0; step < 5; step++ {
		for _, p := range m.Params() {
			p.Value.ZeroGrad()
		}
		x := autograd.Constant(xT)
		loss := autograd.SoftmaxCrossEntropy(m.Forward(ctx, x), labels, 0)
		loss.Backward()
		for _, p := range m.Params() {
			if p.Grad() != nil {
				tensor.AxpyInto(p.Data(), -0.05, p.Grad())
			}
		}
	}
	after := lossAt()
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}

func TestBatchNormsEnumerated(t *testing.T) {
	cfg, _ := ConfigByName("pico", 10)
	m := New(rand.New(rand.NewSource(1)), cfg)
	// stem + head + per block (2 or 3 each).
	want := 2
	for _, b := range m.Blocks {
		if b.Expand != nil {
			want += 3
		} else {
			want += 2
		}
	}
	if got := len(m.BatchNorms()); got != want {
		t.Fatalf("BatchNorms() = %d, want %d", got, want)
	}
}

func TestMBConvResidualOnlyWhenShapesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	withSkip := NewMBConv(rng, "b", BlockArgs{Kernel: 3, InFilters: 8, OutFilters: 8, ExpandRatio: 6, Stride: 1, SERatio: 0.25}, 0)
	if !withSkip.HasSkip {
		t.Fatal("stride-1 same-channel block must have residual")
	}
	noSkipStride := NewMBConv(rng, "b", BlockArgs{Kernel: 3, InFilters: 8, OutFilters: 8, ExpandRatio: 6, Stride: 2, SERatio: 0.25}, 0)
	if noSkipStride.HasSkip {
		t.Fatal("stride-2 block must not have residual")
	}
	noSkipCh := NewMBConv(rng, "b", BlockArgs{Kernel: 3, InFilters: 8, OutFilters: 16, ExpandRatio: 6, Stride: 1, SERatio: 0.25}, 0)
	if noSkipCh.HasSkip {
		t.Fatal("channel-changing block must not have residual")
	}
}

func TestConfigByNameUnknown(t *testing.T) {
	if _, ok := ConfigByName("b9", 10); ok {
		t.Fatal("unknown name must report !ok")
	}
	names := FamilyNames()
	if len(names) != 11 {
		t.Fatalf("FamilyNames() = %d entries, want 11", len(names))
	}
	for _, n := range names {
		if _, ok := ConfigByName(n, 10); !ok {
			t.Fatalf("FamilyNames lists %q but ConfigByName rejects it", n)
		}
	}
}
