package optim

import (
	"math"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/nn"
	"effnetscale/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. lr is the
// global learning rate for this step (produced by a schedule.Schedule).
//
// Every optimizer is a snapshot participant: CaptureState serializes its
// per-parameter slots (momentum buffers, second-moment accumulators) keyed
// by parameter name, and RestoreState rebuilds them so a resumed run steps
// bit-for-bit identically to the uninterrupted one.
type Optimizer interface {
	Step(params []*nn.Param, lr float64)
	Name() string
	// CaptureState serializes the optimizer's slots over params (deep copy).
	CaptureState(params []*nn.Param) (checkpoint.Component, error)
	// RestoreState replaces the optimizer's slots from a captured component,
	// validating optimizer identity, parameter names and shapes.
	RestoreState(params []*nn.Param, c checkpoint.Component) error
}

// state holds per-parameter optimizer slots, lazily allocated.
type state map[*nn.Param][]*tensor.Tensor

func (s state) get(p *nn.Param, n int) []*tensor.Tensor {
	if sl, ok := s[p]; ok {
		return sl
	}
	sl := make([]*tensor.Tensor, n)
	for i := range sl {
		sl[i] = tensor.New(p.Data().Shape()...)
	}
	s[p] = sl
	return sl
}

// --- SGD ---------------------------------------------------------------------

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	slots       state
}

// NewSGD returns SGD with the given momentum and weight decay.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

// Step applies one update.
func (o *SGD) Step(params []*nn.Param, lr float64) {
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		v := o.slots.get(p, 1)[0]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		mu := float32(o.Momentum)
		lrf := float32(lr)
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			v.Data()[i] = mu*v.Data()[i] + grad
			w.Data()[i] -= lrf * v.Data()[i]
		}
	}
}

// --- RMSProp -------------------------------------------------------------------

// RMSProp is the TensorFlow-flavoured RMSProp used by the original
// EfficientNet training setup: decay 0.9, momentum 0.9, epsilon 1e-3,
// with L2 weight decay added to the gradient.
type RMSProp struct {
	Decay       float64
	Momentum    float64
	Eps         float64
	WeightDecay float64
	slots       state
}

// NewRMSProp returns RMSProp with the EfficientNet defaults.
func NewRMSProp(weightDecay float64) *RMSProp {
	return &RMSProp{Decay: 0.9, Momentum: 0.9, Eps: 1e-3, WeightDecay: weightDecay, slots: state{}}
}

// Name implements Optimizer.
func (o *RMSProp) Name() string { return "rmsprop" }

// Step applies one update.
func (o *RMSProp) Step(params []*nn.Param, lr float64) {
	rho := float32(o.Decay)
	mu := float32(o.Momentum)
	eps := float32(o.Eps)
	lrf := float32(lr)
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		sl := o.slots.get(p, 2)
		ms, mom := sl[0], sl[1]
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			wd = 0
		}
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			ms.Data()[i] = rho*ms.Data()[i] + (1-rho)*grad*grad
			mom.Data()[i] = mu*mom.Data()[i] + lrf*grad/float32(math.Sqrt(float64(ms.Data()[i]))+float64(eps))
			w.Data()[i] -= mom.Data()[i]
		}
	}
}

// --- LARS ---------------------------------------------------------------------

// LARS implements Layer-wise Adaptive Rate Scaling (You, Gitman, Ginsburg
// 2017), the optimizer the paper uses to hold accuracy at batch sizes up to
// 65536. Each layer's update is rescaled by the trust ratio
// η·‖w‖/(‖g‖ + λ‖w‖), so layers with small weights relative to their
// gradients take proportionally smaller steps. Batch-norm parameters and
// biases (Param.NoAdapt) skip both adaptation and weight decay, following
// the paper's configuration.
type LARS struct {
	// Eta is the trust coefficient (You et al. use 0.001).
	Eta float64
	// Momentum is the SGD momentum applied after trust scaling.
	Momentum float64
	// WeightDecay is L2 regularization folded into the trust ratio.
	WeightDecay float64
	// Eps guards against division by zero for freshly-zero weights.
	Eps float64
	// UnadaptedLRScale multiplies the global LR for NoAdapt parameters
	// (batch-norm scale/shift and biases). LARS nominal LRs run two orders
	// of magnitude above plain-SGD LRs because the trust ratio shrinks
	// every adapted update; unadapted parameters see the LR raw, so
	// without this scale they blow up whenever gradients are not tiny.
	// 0.01 restores SGD-magnitude steps for them.
	UnadaptedLRScale float64
	slots            state
}

// NewLARS returns LARS with trust coefficient 0.001, momentum 0.9 and
// unadapted-parameter LR scale 0.01.
func NewLARS(weightDecay float64) *LARS {
	return &LARS{Eta: 0.001, Momentum: 0.9, WeightDecay: weightDecay, Eps: 1e-9, UnadaptedLRScale: 0.01, slots: state{}}
}

// Name implements Optimizer.
func (o *LARS) Name() string { return "lars" }

// TrustRatio computes the layer-wise adaptation factor for a parameter with
// the given weight and gradient norms. Exposed for tests and analysis.
func (o *LARS) TrustRatio(wNorm, gNorm float64) float64 {
	denom := gNorm + o.WeightDecay*wNorm
	if wNorm == 0 || denom <= o.Eps {
		return 1
	}
	return o.Eta * wNorm / denom
}

// Step applies one update.
func (o *LARS) Step(params []*nn.Param, lr float64) {
	mu := float32(o.Momentum)
	for _, p := range params {
		g := p.Grad()
		if g == nil {
			continue
		}
		w := p.Data()
		v := o.slots.get(p, 1)[0]
		var scale float64
		wd := float32(o.WeightDecay)
		if p.NoAdapt {
			// Unadapted parameters: plain momentum SGD at a rescaled LR,
			// no weight decay.
			scale = lr * o.UnadaptedLRScale
			wd = 0
		} else {
			scale = lr * o.TrustRatio(w.Norm(), g.Norm())
		}
		sf := float32(scale)
		for i := range w.Data() {
			grad := g.Data()[i] + wd*w.Data()[i]
			v.Data()[i] = mu*v.Data()[i] + sf*grad
			w.Data()[i] -= v.Data()[i]
		}
	}
}

// ByName constructs an optimizer from its lower-case name. Supported:
// sgd, rmsprop, lars.
func ByName(name string, weightDecay float64) (Optimizer, bool) {
	switch name {
	case "sgd":
		return NewSGD(0.9, weightDecay), true
	case "rmsprop":
		return NewRMSProp(weightDecay), true
	case "lars":
		return NewLARS(weightDecay), true
	}
	return nil, false
}
