package optim

import (
	"strings"
	"testing"

	"effnetscale/internal/autograd"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

func stateParams() []*nn.Param {
	mk := func(name string, noAdapt bool, shape ...int) *nn.Param {
		t := tensor.New(shape...)
		for i := range t.Data() {
			t.Data()[i] = float32(i%7) - 3
		}
		p := &nn.Param{Name: name, Value: autograd.Leaf(t, true), NoAdapt: noAdapt}
		p.Value.Grad = tensor.New(shape...)
		return p
	}
	return []*nn.Param{
		mk("conv.w", false, 4, 3, 3, 3),
		mk("bn.scale", true, 4),
		mk("fc.w", false, 4, 6),
	}
}

func setGrads(params []*nn.Param, scale float32) {
	for _, p := range params {
		for i := range p.Value.Grad.Data() {
			p.Value.Grad.Data()[i] = scale * (float32(i%5) - 2)
		}
	}
}

func stepN(o Optimizer, params []*nn.Param, n int, gradScale float32) {
	for s := 0; s < n; s++ {
		setGrads(params, gradScale*float32(s+1))
		o.Step(params, 0.05)
	}
}

func sameWeights(t *testing.T, a, b []*nn.Param, label string) {
	t.Helper()
	for i := range a {
		ad, bd := a[i].Data().Data(), b[i].Data().Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("%s: %s[%d] diverged: %v vs %v", label, a[i].Name, j, ad[j], bd[j])
			}
		}
	}
}

// TestOptimizerStateRoundTrip is the slot-fidelity contract: an optimizer
// restored from a snapshot must continue bit-for-bit identically to the one
// that kept running — for every optimizer the paper trains with.
func TestOptimizerStateRoundTrip(t *testing.T) {
	builders := map[string]func() Optimizer{
		"sgd":     func() Optimizer { return NewSGD(0.9, 1e-4) },
		"rmsprop": func() Optimizer { return NewRMSProp(1e-4) },
		"lars":    func() Optimizer { return NewLARS(1e-4) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			ref := stateParams()
			refOpt := build()
			stepN(refOpt, ref, 5, 0.1)

			// Capture mid-run, restore into a fresh optimizer over fresh
			// params holding the same weights.
			comp, err := refOpt.CaptureState(ref)
			if err != nil {
				t.Fatal(err)
			}
			res := stateParams()
			for i := range res {
				res[i].Data().CopyFrom(ref[i].Data())
			}
			resOpt := build()
			if err := resOpt.RestoreState(res, comp); err != nil {
				t.Fatal(err)
			}

			// Both must now evolve identically.
			stepN(refOpt, ref, 4, 0.2)
			stepN(resOpt, res, 4, 0.2)
			sameWeights(t, ref, res, name)
		})
	}
}

func TestOptimizerStateRejectsMismatches(t *testing.T) {
	params := stateParams()
	o := NewRMSProp(0)
	stepN(o, params, 2, 0.1)
	comp, err := o.CaptureState(params)
	if err != nil {
		t.Fatal(err)
	}

	// Cross-optimizer restore.
	if err := NewSGD(0.9, 0).RestoreState(params, comp); err == nil || !strings.Contains(err.Error(), "saved from optimizer") {
		t.Fatalf("cross-optimizer restore = %v, want identity error", err)
	}
	// Slot for a parameter the model does not have.
	comp.PutF32("slot/ghost.w/0", []int{2}, []float32{1, 2})
	if err := NewRMSProp(0).RestoreState(params, comp); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("ghost-slot restore = %v, want unknown-parameter error", err)
	}
	delete(comp, "slot/ghost.w/0")
	// Slot index beyond what the optimizer keeps.
	comp.PutF32("slot/conv.w/7", params[0].Data().Shape(), params[0].Data().Data())
	if err := NewRMSProp(0).RestoreState(params, comp); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad-slot-index restore = %v, want out-of-range error", err)
	}
	delete(comp, "slot/conv.w/7")
	// State the optimizer does not keep.
	comp.PutI64("steps", 2)
	if err := NewRMSProp(0).RestoreState(params, comp); err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Fatalf("extra-state restore = %v, want unknown-state error", err)
	}
}

func TestEMAStateRoundTrip(t *testing.T) {
	ref := stateParams()
	e := NewWeightEMA(0.9)
	for s := 0; s < 4; s++ {
		setGrads(ref, 0.1)
		NewSGD(0.9, 0).Step(ref, 0.05)
		e.Update(ref)
	}
	comp, err := e.CaptureState(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := stateParams()
	for i := range res {
		res[i].Data().CopyFrom(ref[i].Data())
	}
	e2 := NewWeightEMA(0.9)
	if err := e2.RestoreState(res, comp); err != nil {
		t.Fatal(err)
	}
	if e2.Steps() != e.Steps() {
		t.Fatalf("restored steps %d, want %d", e2.Steps(), e.Steps())
	}
	e.Update(ref)
	e2.Update(res)
	if err := e.Swap(ref); err != nil {
		t.Fatal(err)
	}
	if err := e2.Swap(res); err != nil {
		t.Fatal(err)
	}
	sameWeights(t, ref, res, "ema-shadow")

	// Decay mismatch is rejected.
	if err := NewWeightEMA(0.5).RestoreState(res, comp); err == nil || !strings.Contains(err.Error(), "decay") {
		t.Fatalf("decay-mismatch restore = %v, want decay error", err)
	}
}
