package efficientnet_test

import (
	"math"
	"math/rand"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/bf16"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/optim"
	"effnetscale/internal/tensor"
)

// TestFreezeAfterEMASwapSeesShadowWeights follows the evaluation loop's
// order: swap the EMA shadow weights in, freeze, swap back. The plan must
// score the shadow weights, and keep scoring them after the live weights
// return.
func TestFreezeAfterEMASwapSeesShadowWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cfg, _ := efficientnet.ConfigByName("pico", 6)
	cfg.Resolution = 16
	m := efficientnet.New(rng, cfg)
	ema := optim.NewWeightEMA(0.5)
	ema.Update(m.Params())
	for _, p := range m.Params() {
		d := p.Data().Data()
		for i := range d {
			d[i] += float32(rng.NormFloat64() * 0.05)
		}
	}
	ema.Update(m.Params())
	x := tensor.Randn(rng, 1, 3, 3, 16, 16)
	live := efficientnet.Freeze(m, bf16.FP32Policy).Infer(nil, x)

	if err := ema.Swap(m.Params()); err != nil {
		t.Fatal(err)
	}
	p := efficientnet.Freeze(m, bf16.FP32Policy)
	shadow := m.Forward(nn.EvalCtx(), autograd.Constant(x)).T
	if err := ema.Swap(m.Params()); err != nil {
		t.Fatal(err)
	}
	got := p.Infer(nil, x)
	differs := false
	for i, v := range shadow.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("logit %d is %v, the shadow weights' eval forward gives %v", i, got.Data()[i], v)
		}
		differs = differs || v != live.Data()[i]
	}
	if !differs {
		t.Fatal("shadow and live weights give the same logits; the test cannot tell them apart")
	}
}
