package replica

// Model-parallel execution over the mesh's model axis (§5 hybrid
// parallelism). Parameters stay fully replicated on every rank — what keeps
// snapshots, EMA and WeightsInSync untouched — but the compute of the 1×1
// convolutions (MBConv expand/project, the head conv) is channel-sharded:
// each of the M ranks of a model group convolves only its owned slice of
// output channels, an all-gather on the model axis rebuilds the full
// activation, and the backward all-reduces the partial input gradients. The
// weight gradient each rank produces covers only its owned rows; after the
// data-axis reduction the owned row slices are all-gathered back into full
// gradients (exchangeGrads), so the optimizer applies identical updates
// everywhere and the replication invariant is restored every step.
//
// Together with the data axis this is structurally a reduce-scatter +
// all-gather of the full gradient across the whole mesh — the same
// decomposition a ring all-reduce performs internally.

import (
	"effnetscale/internal/autograd"
	"effnetscale/internal/comm"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/nn"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
)

// shardedConv records the channel partition of one 1×1 convolution: this
// rank computes output channels [lo, hi) of cout, and its weight rows occupy
// [elemLo, elemHi) of the flattened gradient (rows are contiguous in the
// [cout, cin, 1, 1] layout, which is what makes the slice exchange a plain
// contiguous all-gather).
type shardedConv struct {
	lo, hi int
	// fullLo/fullLen locate the conv's whole weight in the flattened
	// gradient; elemLo/elemHi this rank's owned rows within it.
	fullLo         int
	elemLo, elemHi int
}

// shardPlan is one replica's model-parallel execution plan: which convs it
// shards, over which model-axis collective, with reusable exchange buffers.
// A nil plan (M = 1) means the replica runs the plain data-parallel path.
type shardPlan struct {
	mIdx, M int
	coll    comm.Collective // model-axis collective (world size M, rank mIdx)
	convs   map[*nn.Conv2D]*shardedConv
	list    []*shardedConv // stable order for the packed gradient exchange

	// sample is the step's phase-timing sample, set by trainStep before the
	// forward; model-axis exchange time accrues to PhaseMPExchange.
	sample *telemetry.StepSample

	// Packed gradient-exchange buffers: local holds this rank's owned row
	// slices of every sharded conv, out the all-gathered slices of all M
	// ranks (rank-major).
	mpLocal, mpOut []float32
}

// buildShardPlan partitions the model's shardable 1×1 convs channel-wise
// across M model ranks. A conv whose output-channel count M does not divide
// stays replicated (every rank computes it fully — still correct, just not
// sharded); the plan covers the rest. Returns nil when nothing is shardable.
func buildShardPlan(m *efficientnet.Model, mIdx, M int, coll comm.Collective) *shardPlan {
	offsets := make(map[*nn.Param]int, len(m.Params()))
	off := 0
	for _, p := range m.Params() {
		offsets[p] = off
		off += p.Data().Len()
	}
	sp := &shardPlan{mIdx: mIdx, M: M, coll: coll, convs: make(map[*nn.Conv2D]*shardedConv)}
	local := 0
	for _, conv := range m.ShardableConvs() {
		cout := conv.W.Data().Dim(0)
		if cout%M != 0 {
			continue
		}
		rowElems := conv.W.Data().Len() / cout
		csh := cout / M
		sc := &shardedConv{
			lo:     mIdx * csh,
			hi:     (mIdx + 1) * csh,
			fullLo: offsets[conv.W],
		}
		sc.elemLo = sc.fullLo + sc.lo*rowElems
		sc.elemHi = sc.fullLo + sc.hi*rowElems
		sp.convs[conv] = sc
		sp.list = append(sp.list, sc)
		local += sc.elemHi - sc.elemLo
	}
	if len(sp.list) == 0 {
		return nil
	}
	sp.mpLocal = make([]float32, local)
	sp.mpOut = make([]float32, local*M)
	return sp
}

// conv1x1 is the plan's Conv1x1Fn: sharded convs compute only the owned
// output-channel rows and all-gather the activation across the model axis;
// everything else runs the plain layer. Like every op, it allocates from its
// input's step arena and rounds its operands as autograd.Conv2D does.
func (sp *shardPlan) conv1x1(ctx *nn.Ctx, l *nn.Conv2D, x *autograd.Value) *autograd.Value {
	sc := sp.convs[l]
	if sc == nil {
		return l.Forward(ctx, x)
	}
	w := l.W
	cout := w.Data().Dim(0)
	cin := w.Data().Dim(1)
	csh := sc.hi - sc.lo
	policy := ctx.Precision
	ar := x.Arena()
	xc := autograd.MaybeBF16(ar, x.T, policy.ConvBF16)
	// The owned weight rows are a contiguous span of the [cout,cin,1,1]
	// layout; FromSlice views them without copying.
	wRows := tensor.FromSlice(w.Data().Data()[sc.lo*cin:sc.hi*cin], csh, cin, 1, 1)
	wc := autograd.MaybeBF16(ar, wRows, policy.ConvBF16)
	local := ar.New(l.Spec.OutShape(xc, wc)...) // [N, csh, OH, OW]
	tensor.Conv2DInto(local, xc, wc, l.Spec, ctx.Scratch)
	n, _, oh, ow := local.Dim4()
	chunk := csh * oh * ow

	// Activation all-gather: every model rank contributes its channel slice;
	// the gathered buffer is rank-major, so re-interleave per sample into the
	// full [N, cout, OH, OW] activation. Each row of the gather carries a
	// per-sample contiguous channel block — no strided copies.
	t0 := sp.sample.Now()
	gathered := ar.New(sp.M * n * chunk).Data()
	sp.coll.AllGather(local.Data(), gathered)
	sp.sample.Add(telemetry.PhaseMPExchange, t0)
	out := ar.New(n, cout, oh, ow)
	for mm := 0; mm < sp.M; mm++ {
		seg := gathered[mm*n*chunk : (mm+1)*n*chunk]
		for i := 0; i < n; i++ {
			copy(out.Data()[(i*cout+mm*csh)*oh*ow:][:chunk], seg[i*chunk:(i+1)*chunk])
		}
	}

	return autograd.NewOp("shardconv1x1", out, []*autograd.Value{x, w.Value}, func(g *tensor.Tensor) {
		// Backward of the gather is a slice: only the owned channels' grads
		// drive this rank's kernel backward.
		gsh := ar.New(n, csh, oh, ow)
		for i := 0; i < n; i++ {
			copy(gsh.Data()[i*chunk:(i+1)*chunk], g.Data()[(i*cout+sc.lo)*oh*ow:][:chunk])
		}
		gc := autograd.MaybeBF16(ar, gsh, policy.ConvBF16)
		dx, dwSh := ar.New(xc.Shape()...), ar.New(wc.Shape()...)
		tensor.Conv2DBackwardInto(dx, dwSh, xc, wc, gc, l.Spec, ctx.Scratch)
		// dx is partial — each rank saw only its output channels — so the
		// model axis sums the contributions (the gradient counterpart of the
		// forward gather).
		t0 := sp.sample.Now()
		sp.coll.AllReduce(dx.Data())
		sp.sample.Add(telemetry.PhaseMPExchange, t0)
		x.Accumulate(dx)
		if w.Value.RequiresGrad() {
			// Owned rows only; the rest stays zero until exchangeGrads
			// rebuilds the full gradient after the data-axis reduction.
			dw := ar.New(w.Data().Shape()...)
			copy(dw.Data()[sc.lo*cin:sc.hi*cin], dwSh.Data())
			w.Value.Accumulate(dw)
		}
	})
}

// forward runs the sharded forward pass.
func (sp *shardPlan) forward(ctx *nn.Ctx, m *efficientnet.Model, x *autograd.Value) *autograd.Value {
	return m.ForwardConv(ctx, x, sp.conv1x1)
}

// exchangeGrads rebuilds the full gradients of the sharded convs after the
// data-axis reduction: each rank's gradBuf holds data-reduced values on its
// owned row spans (zeros elsewhere), and one packed model-axis all-gather
// distributes every rank's slices to everyone. Runs on the loop goroutine
// under PhaseMPExchange.
func (sp *shardPlan) exchangeGrads(gradBuf []float32, sample *telemetry.StepSample) {
	o := 0
	for _, sc := range sp.list {
		o += copy(sp.mpLocal[o:], gradBuf[sc.elemLo:sc.elemHi])
	}
	t0 := sample.Now()
	sp.coll.AllGather(sp.mpLocal, sp.mpOut)
	sample.Add(telemetry.PhaseMPExchange, t0)
	for mm := 0; mm < sp.M; mm++ {
		seg := sp.mpOut[mm*len(sp.mpLocal) : (mm+1)*len(sp.mpLocal)]
		o := 0
		for _, sc := range sp.list {
			n := sc.elemHi - sc.elemLo
			dst := sc.fullLo + mm*n
			copy(gradBuf[dst:dst+n], seg[o:o+n])
			o += n
		}
	}
}
