package nn

import (
	"fmt"
	"math"

	"effnetscale/internal/autograd"
	"effnetscale/internal/tensor"
)

// StatsReducer sums per-channel statistics across a batch-normalization
// replica group. This is the seam through which the paper's §3.4 distributed
// batch normalization plugs in: the replica engine installs a reducer that
// all-reduces the vectors over the replicas in the same BN group, so the
// effective normalization batch is (per-replica batch) × (group size).
type StatsReducer interface {
	// ReduceStats sums count and each vector element-wise across the group,
	// in place, returning the summed count. A local (non-distributed)
	// implementation returns its inputs unchanged.
	ReduceStats(count float64, vecs ...[]float64) float64
}

// LocalStats is the identity reducer: batch-norm statistics are computed
// over the local replica batch only (the non-distributed baseline).
type LocalStats struct{}

// ReduceStats returns count and leaves vecs untouched.
func (LocalStats) ReduceStats(count float64, _ ...[]float64) float64 { return count }

// BatchNorm normalizes NCHW activations per channel. During training it uses
// (possibly group-reduced) batch statistics and maintains exponential moving
// averages for inference.
type BatchNorm struct {
	Gamma, Beta *Param
	// RunningMean and RunningVar are the inference-time moving statistics.
	RunningMean, RunningVar *tensor.Tensor
	// Momentum is the EMA decay (TF EfficientNet uses 0.99).
	Momentum float64
	// Eps stabilizes the variance denominator.
	Eps float64
	// Reducer aggregates statistics across the BN replica group. Defaults
	// to LocalStats; the distributed engine replaces it per §3.4.
	Reducer StatsReducer

	c int
	// The per-channel float64 statistics of a training forward (sum, sqsum,
	// mean, variance, invstd) and its backward (s1, s2), held by the layer
	// so a step allocates none of them; fwdStats and bwdStats are the pairs
	// each hands the Reducer. A model belongs to one replica, so one
	// goroutine uses them. The backward reads the forward's invstd, so a
	// training forward's backward must run before the layer's next training
	// forward — the engine's micro-batch order; pass enforces it.
	sum, sqsum, mean, variance, invstd, s1, s2 []float64
	fwdStats, bwdStats                         [][]float64
	pass                                       uint64
}

// NewBatchNorm creates a batch-norm layer for c channels with gamma=1,
// beta=0, and TF-style defaults (momentum 0.99, eps 1e-3).
func NewBatchNorm(name string, c int) *BatchNorm {
	l := &BatchNorm{
		Gamma:       &Param{Name: name + ".gamma", Value: autograd.Leaf(tensor.Ones(c), true), NoAdapt: true},
		Beta:        &Param{Name: name + ".beta", Value: autograd.Leaf(tensor.New(c), true), NoAdapt: true},
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
		Momentum:    0.99,
		Eps:         1e-3,
		Reducer:     LocalStats{},
		c:           c,
	}
	for _, v := range []*[]float64{&l.sum, &l.sqsum, &l.mean, &l.variance, &l.invstd, &l.s1, &l.s2} {
		*v = make([]float64, c)
	}
	l.fwdStats = [][]float64{l.sum, l.sqsum}
	l.bwdStats = [][]float64{l.s1, l.s2}
	return l
}

// Params returns gamma and beta.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// Forward normalizes x. In training mode, per-channel mean and variance are
// computed over the local batch and reduced across the BN group via Reducer;
// in eval mode the running statistics are used.
func (l *BatchNorm) Forward(ctx *Ctx, x *autograd.Value) *autograd.Value {
	n, c, h, w := x.T.Dim4()
	if c != l.c {
		panic(fmt.Sprintf("nn: BatchNorm built for %d channels, got %d", l.c, c))
	}
	if !ctx.Training {
		return l.evalForward(x, n, c, h, w)
	}

	hw := h * w
	xd := x.T.Data()
	sum, sqsum, mean, variance, invstd := l.sum, l.sqsum, l.mean, l.variance, l.invstd
	clear(sum)
	clear(sqsum)
	for nc := 0; nc < n*c; nc++ {
		ch := nc % c
		base := nc * hw
		var s, sq float64
		for i := 0; i < hw; i++ {
			v := float64(xd[base+i])
			s += v
			sq += v * v
		}
		sum[ch] += s
		sqsum[ch] += sq
	}
	m := l.Reducer.ReduceStats(float64(n*hw), l.fwdStats...)

	for ch := 0; ch < c; ch++ {
		mean[ch] = sum[ch] / m
		v := sqsum[ch]/m - mean[ch]*mean[ch]
		if v < 0 {
			v = 0 // guard against catastrophic cancellation
		}
		variance[ch] = v
		invstd[ch] = 1 / math.Sqrt(v+l.Eps)
	}

	// Update running statistics (side effect; not part of the tape).
	for ch := 0; ch < c; ch++ {
		l.RunningMean.Data()[ch] = float32(l.Momentum*float64(l.RunningMean.Data()[ch]) + (1-l.Momentum)*mean[ch])
		l.RunningVar.Data()[ch] = float32(l.Momentum*float64(l.RunningVar.Data()[ch]) + (1-l.Momentum)*variance[ch])
	}

	// Normalize and cache xhat for backward.
	ar := x.Arena()
	xhat := ar.New(x.T.Shape()...)
	out := ar.New(x.T.Shape()...)
	xhd, od := xhat.Data(), out.Data()
	gd := l.Gamma.Value.T.Data()
	bd := l.Beta.Value.T.Data()
	for nc := 0; nc < n*c; nc++ {
		ch := nc % c
		lo, hi := nc*hw, (nc+1)*hw
		tensor.BNNormalizeInto(od[lo:hi], xhd[lo:hi], xd[lo:hi], float32(mean[ch]), float32(invstd[ch]), gd[ch], bd[ch])
	}

	gamma, beta := l.Gamma.Value, l.Beta.Value
	reducer := l.Reducer
	l.pass++
	pass := l.pass
	return autograd.NewOp("batchnorm", out, []*autograd.Value{x, gamma, beta}, func(dy *tensor.Tensor) {
		if l.pass != pass {
			panic("nn: BatchNorm backward after a later training forward of the same layer")
		}
		dyd := dy.Data()
		// Local per-channel sums of dy and dy*xhat.
		s1, s2 := l.s1, l.s2
		clear(s1)
		clear(s2)
		dgamma := ar.New(c)
		dbeta := ar.New(c)
		for nc := 0; nc < n*c; nc++ {
			ch := nc % c
			base := nc * hw
			var a, b float64
			for i := 0; i < hw; i++ {
				g := float64(dyd[base+i])
				a += g
				b += g * float64(xhd[base+i])
			}
			s1[ch] += a
			s2[ch] += b
		}
		// dgamma/dbeta are local sums: the global gradient all-reduce
		// across replicas completes them.
		for ch := 0; ch < c; ch++ {
			dgamma.Data()[ch] = float32(s2[ch])
			dbeta.Data()[ch] = float32(s1[ch])
		}
		gamma.Accumulate(dgamma)
		beta.Accumulate(dbeta)

		if x.RequiresGrad() {
			// The dx correction terms need *group* means of dy and
			// dy*xhat — a second reduction per §3.4's communication cost.
			reducer.ReduceStats(float64(n*hw), l.bwdStats...)
			dx := ar.New(x.T.Shape()...)
			dxd := dx.Data()
			for nc := 0; nc < n*c; nc++ {
				ch := nc % c
				lo, hi := nc*hw, (nc+1)*hw
				tensor.BNBackwardInto(dxd[lo:hi], dyd[lo:hi], xhd[lo:hi],
					gd[ch]*float32(invstd[ch]), float32(s1[ch]/m), float32(s2[ch]/m))
			}
			x.AccumulateOwned(dx)
		}
	})
}

// RunningInvStd is channel ch's inference-time 1/sqrt(var+eps).
func (l *BatchNorm) RunningInvStd(ch int) float32 {
	return float32(1 / math.Sqrt(float64(l.RunningVar.Data()[ch])+l.Eps))
}

// applyRunning normalizes x [n, c, hw] with the running statistics into out.
// Channels run in the outer loop so each one's scalars are computed once per
// call, with no per-call slice to hold them.
func (l *BatchNorm) applyRunning(out, x []float32, n, hw int) {
	gd, bd := l.Gamma.Value.T.Data(), l.Beta.Value.T.Data()
	mu := l.RunningMean.Data()
	for ch := 0; ch < l.c; ch++ {
		is := l.RunningInvStd(ch)
		for s := 0; s < n; s++ {
			lo := (s*l.c + ch) * hw
			tensor.BNInferInto(out[lo:lo+hw], x[lo:lo+hw], mu[ch], is, gd[ch], bd[ch])
		}
	}
}

func (l *BatchNorm) evalForward(x *autograd.Value, n, c, h, w int) *autograd.Value {
	hw := h * w
	ar := x.Arena()
	out := ar.New(x.T.Shape()...)
	xd := x.T.Data()
	l.applyRunning(out.Data(), xd, n, hw)
	gamma, beta := l.Gamma.Value, l.Beta.Value
	// Inference backward (rarely needed, but keeps eval-mode fine-tuning
	// possible): y = gamma*(x-mu)*is + b with constant statistics.
	return autograd.NewOp("batchnorm_eval", out, []*autograd.Value{x, gamma, beta}, func(dy *tensor.Tensor) {
		dyd := dy.Data()
		dgamma := ar.New(c)
		dbeta := ar.New(c)
		dx := ar.New(x.T.Shape()...)
		dgd, dbd, dxd := dgamma.Data(), dbeta.Data(), dx.Data()
		gd := gamma.T.Data()
		for ch := 0; ch < c; ch++ {
			is := l.RunningInvStd(ch)
			mu := l.RunningMean.Data()[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * hw
				for i := base; i < base+hw; i++ {
					xh := (xd[i] - mu) * is
					dgd[ch] += dyd[i] * xh
					dbd[ch] += dyd[i]
					dxd[i] = dyd[i] * gd[ch] * is
				}
			}
		}
		gamma.Accumulate(dgamma)
		beta.Accumulate(dbeta)
		x.AccumulateOwned(dx)
	})
}
