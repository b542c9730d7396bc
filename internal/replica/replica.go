package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/efficientnet"
	"effnetscale/internal/mesh"
	"effnetscale/internal/nn"
	"effnetscale/internal/optim"
	"effnetscale/internal/rng"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/tensor"
	"effnetscale/internal/topology"

	"effnetscale/internal/autograd"
)

// Config assembles a distributed training run.
type Config struct {
	// World is the number of replicas.
	World int
	// PerReplicaBatch is each replica's local batch; the global batch is
	// World × PerReplicaBatch.
	PerReplicaBatch int
	// Model selects the EfficientNet variant (family name).
	Model string
	// Dataset provides sharded training and validation data.
	Dataset *data.Dataset
	// OptimizerName selects the optimizer (see optim.ByName).
	OptimizerName string
	// WeightDecay is the optimizer's L2 coefficient.
	WeightDecay float64
	// Schedule maps fractional epochs to learning rates.
	Schedule schedule.Schedule
	// BNGroupSize is the distributed batch-norm group size (1 = local BN).
	// Must divide World.
	BNGroupSize int
	// Slice is the TPU slice used for 2-D BN group tiling; zero value means
	// a 1×(World/2) layout is assumed.
	Slice topology.Slice
	// Precision is the mixed-precision policy (bf16 convolutions by
	// default in the paper).
	Precision bf16.Policy
	// LabelSmoothing for the softmax cross-entropy (EfficientNet uses 0.1).
	LabelSmoothing float32
	// Seed drives model init and per-replica RNG streams.
	Seed int64
	// DropoutOverride, when >= 0, replaces the model's dropout rate; pass
	// -1 to keep the model family default. The zero value disables dropout,
	// which is the right default for the deterministic mini-scale runs.
	DropoutOverride float64
	// DropConnectOverride behaves like DropoutOverride for stochastic depth.
	DropConnectOverride float64
	// NoAugment disables training-time data augmentation (needed by the
	// N-replica ≡ single-large-batch equivalence tests, where per-replica
	// augmentation RNGs would otherwise produce different pixels).
	NoAugment bool
	// BNMomentum overrides the batch-norm running-statistics EMA decay
	// when non-zero. The TF default of 0.99 assumes tens of thousands of
	// steps; mini-scale runs of a few hundred steps should pass ~0.9 or
	// evaluation will see stale statistics.
	BNMomentum float64
	// GradAccumSteps runs this many micro-batches per replica per global
	// step, accumulating gradients locally before the all-reduce. The
	// effective global batch becomes World × PerReplicaBatch ×
	// GradAccumSteps without growing per-replica memory — how batch 65536
	// fits when HBM cannot hold it at once. 0/1 disables accumulation.
	// Batch-norm statistics remain per-micro-batch, the standard behaviour
	// of gradient accumulation.
	GradAccumSteps int
	// EMADecay, when > 0, maintains an exponential moving average of the
	// weights (the reference EfficientNet setup evaluates the EMA weights).
	EMADecay float64
	// Mesh lays the World ranks out as a Data×Model device mesh (§5 hybrid
	// parallelism): gradients average over the data axis while the 1×1
	// convolutions' channels are sharded across the model axis, with
	// activation all-gathers and gradient-slice exchanges on the model-axis
	// collectives (see internal/mesh). Data×Model must equal World, and the
	// global batch becomes Data × PerReplicaBatch × GradAccumSteps (the M
	// ranks of a model group consume the same data shard). The zero value
	// means World×1 — pure data parallelism, bit-for-bit today's engine.
	Mesh mesh.Shape
	// Collective selects the all-reduce algorithm for gradients, metrics and
	// BN statistics: comm.RingProvider(), comm.TreeProvider(),
	// comm.Torus2DProvider(slice) or comm.AutoProvider(slice). The zero
	// value means ring — today's default.
	Collective comm.Provider
	// GradBucketBytes is the bucket size for overlapped gradient reduction:
	// the flattened gradient is cut into buckets of this many bytes, each
	// all-reduced on a background stream the moment the backward pass has
	// produced the bucket's last gradient. 0 picks DefaultGradBucketBytes.
	GradBucketBytes int
	// NoBackwardOverlap serializes the gradient reduction after the
	// backward pass instead of dispatching buckets from the tape's
	// grad-ready hooks mid-backward. Bucket spans, reduction order within a
	// bucket and the averaging arithmetic are identical either way, so the
	// trajectory is bit-for-bit unchanged — this knob exists purely as the
	// A/B baseline for measuring the overlap win (CI's overlap-smoke job,
	// ROADMAP item 1's before/after reduce_tail numbers).
	NoBackwardOverlap bool
	// PrefetchDepth configures the per-replica input pipeline: the number
	// of rendered batches buffered ahead of the compute loop, with
	// augmentation applied inside the pipeline. 0 means
	// DefaultPrefetchDepth. Every depth delivers bit-for-bit identical
	// batches.
	PrefetchDepth int
	// Telemetry, when non-nil, receives per-step phase timings (data wait,
	// forward, backward, gradient-reduce overlap, optimizer apply),
	// per-collective accounting from instrumented collectives, and pipeline
	// starvation counts. Nil (the default) compiles the instrumentation out
	// of the hot path: no clock reads, no atomic traffic, no allocations.
	Telemetry *telemetry.Recorder
}

// DefaultPrefetchDepth is the input-pipeline depth when Config leaves
// PrefetchDepth zero: with the in-use batch that is triple buffering — one
// batch on the accelerator, one rendered and waiting, one rendering.
const DefaultPrefetchDepth = 2

// ErrClosed is what Step, Evaluate and EvaluateSerial return once the
// engine has been closed.
var ErrClosed = errors.New("replica: engine closed")

// DefaultGradBucketBytes is the gradient bucket size when Config leaves
// GradBucketBytes zero: 32 KiB. Grad-ready dispatch overlaps reduction
// with the backward pass itself, so the useful bucket granularity is the
// per-layer gradient scale — a bucket can only leave when its *last*
// parameter is ready, and a bucket sized near the whole model degenerates
// to a serialized post-backward reduce (the stem, computed last, gates it).
// 32 KiB (8K fp32) keeps even the mini models in several buckets while
// staying bandwidth-bound per collective.
const DefaultGradBucketBytes = 32 << 10

// StepResult aggregates one global step's metrics across all replicas.
type StepResult struct {
	Loss     float64 // global-batch mean loss
	Accuracy float64 // global-batch top-1 accuracy (training batch)
	LR       float64 // learning rate used
	Epoch    float64 // fractional epoch at this step
}

// Engine owns the replicas and their communication worlds.
type Engine struct {
	cfg      Config
	replicas []*Replica
	// gradLen is the flattened gradient length (identical across replicas).
	gradLen int
	// buckets are the [lo, hi) float spans the flattened gradient is cut
	// into for overlapped reduction — identical across replicas, or the
	// lockstep collectives would deadlock.
	buckets [][2]int
	// paramBuckets[i] is the [first, last] (inclusive) bucket-index range
	// parameter i's gradient span overlaps, in Params() order.
	paramBuckets [][2]int
	// bucketParams[b] counts the parameters overlapping bucket b — the
	// countdown bucket assembly re-arms every step.
	bucketParams []int
	// stepsPerEpoch is ceil(train size / global batch).
	stepsPerEpoch int
	stepCount     int
	// pipesUp records that the input pipelines are running. They start
	// lazily at the first Step so a state restore never pays for batches
	// prefetched at position (0,0) only to be thrown away.
	pipesUp bool
	// failed records a state restore that died mid-apply, leaving a mix of
	// old and new state across the ranks. A poisoned engine refuses to
	// train, evaluate or snapshot (see errPoisoned) — the failure must not
	// be trainable-through.
	failed error
	// closed records Close: the pipelines are stopped, so the engine
	// refuses to train or evaluate (ErrClosed).
	closed bool
	// samples holds one reusable per-replica phase-timing sample per rank
	// (nil when telemetry is off, which disables all timing).
	samples []telemetry.StepSample
	// scratch is the engine-owned kernel pool: im2col buffers and GEMM
	// packing panels are drawn from it instead of being allocated per conv
	// call. One pool per engine keeps concurrent engines' working sets
	// separate; dropping the engine releases it.
	scratch *tensor.Scratch
}

// Replica is one data-parallel worker.
type Replica struct {
	Rank  int
	Model *efficientnet.Model

	// dataRank is this replica's coordinate on the mesh's data axis — the
	// shard index its batches come from. Equal to Rank when Model = 1.
	dataRank int
	// plan is the model-parallel execution plan (nil on the pure
	// data-parallel path, i.e. whenever the mesh's model axis is 1).
	plan *shardPlan

	coll    comm.Collective // gradient/metrics collective over the data axis
	opt     optim.Optimizer
	ema     *optim.WeightEMA // nil when EMA disabled
	train   *data.Shard
	val     *data.Shard
	ctx     *nn.Ctx
	gradBuf []float32
	buckets [][2]int
	accum   int

	// arena is the replica's step arena: the batch leaf carries it, so every
	// op output, backward temporary and activation gradient of a
	// micro-batch comes from it, and trainStep resets it when the
	// micro-batch is done. Weights, gradients (bound into gradBuf),
	// optimizer slots, EMA shadows and BN running statistics never live in
	// it. Nil after Close.
	arena *tensor.Arena

	// weightBuf holds every parameter's weights in Params() order
	// (BindWeights), the buffer the refresh all-gather fills. owned is the
	// run of parameters this rank's data coordinate updates: floats
	// [ownBounds[dataRank], ownBounds[dataRank+1]) of weightBuf and gradBuf.
	weightBuf []float32
	owned     []*nn.Param
	ownBounds []int
	// sums carries the step's loss/correct/seen totals through the metrics
	// all-reduce; a field, so the step does not allocate it.
	sums [3]float64

	// tape drives the backward passes; every parameter is registered with
	// it and has its gradient bound into gradBuf (no flatten copy), so the
	// tape's grad-ready hooks can dispatch reduction buckets mid-backward.
	tape *autograd.Tape
	// slot maps a parameter leaf back to its Params() index — the key into
	// the engine's paramBuckets table. Built once; no per-step allocation.
	slot map[*autograd.Value]int
	// paramBuckets and bucketParams alias the engine's tables.
	paramBuckets [][2]int
	bucketParams []int
	// remaining is the per-bucket countdown of not-yet-ready parameters,
	// re-armed from bucketParams before the final micro-batch's backward.
	remaining []int
	// assembling gates the grad-ready hook: bucket dispatch happens only
	// during the accumulation window's final backward pass.
	assembling bool
	// ready feeds the step's reduction stream; sent counts dispatches.
	ready chan [2]int
	sent  int
	// noOverlap serializes dispatch after backward (Config.NoBackwardOverlap).
	noOverlap bool

	// ctxStream is the serializable position of this replica's
	// dropout/stochastic-depth RNG (ctx.RNG) — a cursor a training snapshot
	// records.
	ctxStream *rng.Stream
	// augDraws is the augmentation-stream position as of the last consumed
	// micro-batch — the other recorded cursor (the pipeline's producer runs
	// ahead, so its own stream is not the consumer's position).
	augDraws uint64

	// pipe is the training input pipeline: it renders and augments
	// micro-batches on a background goroutine so the compute loop never
	// waits on host-side rendering. Nil until the first Step.
	pipe *data.Pipeline
	// prefetch is the resolved pipeline depth.
	prefetch int
	// batchSize and res size the evaluation buffers.
	batchSize, res int
	// evalPool lazily holds reusable evaluation batch buffers, shared
	// across this replica's evaluation pipelines so Evaluate allocates no
	// tensors after the first call.
	evalPool *data.BufferPool
}

// Algorithm reports the collective algorithm the engine's gradient
// all-reduce runs (including any fallback, per comm.Collective.Algorithm).
func (e *Engine) Algorithm() string { return e.replicas[0].coll.Algorithm() }

// gradBuckets cuts a flattened gradient of gradLen floats into spans of
// bucketBytes each (last one ragged).
func gradBuckets(gradLen, bucketBytes int) [][2]int {
	per := bucketBytes / 4 // fp32 gradients
	if per < 1 {
		per = 1
	}
	var out [][2]int
	for lo := 0; lo < gradLen; lo += per {
		hi := lo + per
		if hi > gradLen {
			hi = gradLen
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// bucketMembership maps parameter gradient spans onto bucket spans: for
// each parameter the inclusive [first, last] range of buckets its span
// overlaps (a bucket boundary may land mid-parameter), and for each bucket
// the number of overlapping parameters. Both inputs must tile [0, gradLen)
// contiguously in ascending order — what paramSpans and gradBuckets
// produce.
func bucketMembership(spans, buckets [][2]int) (paramBuckets [][2]int, members []int) {
	paramBuckets = make([][2]int, len(spans))
	members = make([]int, len(buckets))
	b := 0
	for i, s := range spans {
		for buckets[b][1] <= s[0] {
			b++
		}
		last := b
		for buckets[last][1] < s[1] {
			last++
		}
		paramBuckets[i] = [2]int{b, last}
		for j := b; j <= last; j++ {
			members[j]++
		}
		b = last
	}
	return paramBuckets, members
}

// paramSpans returns each parameter's [lo, hi) span in the flattened
// gradient, in Params() order — the layout BindGrads pins gradients to.
func paramSpans(params []*nn.Param) [][2]int {
	spans := make([][2]int, 0, len(params))
	off := 0
	for _, p := range params {
		n := p.Data().Len()
		spans = append(spans, [2]int{off, off + n})
		off += n
	}
	return spans
}

// New builds the engine: one model copy per replica (identical weights),
// communication worlds for gradients and BN groups, per-replica shards and
// optimizer instances.
func New(cfg Config) (*Engine, error) {
	if cfg.World < 1 {
		return nil, fmt.Errorf("replica: world %d must be >= 1", cfg.World)
	}
	if cfg.PerReplicaBatch < 1 {
		return nil, fmt.Errorf("replica: per-replica batch %d must be >= 1", cfg.PerReplicaBatch)
	}
	if cfg.BNGroupSize == 0 {
		cfg.BNGroupSize = 1
	}
	if cfg.GradAccumSteps < 1 {
		cfg.GradAccumSteps = 1
	}
	if cfg.Mesh == (mesh.Shape{}) {
		cfg.Mesh = mesh.Shape{Data: cfg.World, Model: 1}
	}
	if err := cfg.Mesh.Validate(); err != nil {
		return nil, fmt.Errorf("replica: %v", err)
	}
	if cfg.Mesh.World() != cfg.World {
		return nil, fmt.Errorf("replica: mesh %s covers %d ranks, world is %d", cfg.Mesh, cfg.Mesh.World(), cfg.World)
	}
	if cfg.Mesh.Data%cfg.BNGroupSize != 0 {
		return nil, fmt.Errorf("replica: BN group size %d does not divide the mesh's data axis %d", cfg.BNGroupSize, cfg.Mesh.Data)
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("replica: dataset is required")
	}
	modelCfg, ok := efficientnet.ConfigByName(cfg.Model, cfg.Dataset.Config().NumClasses)
	if !ok {
		return nil, fmt.Errorf("replica: unknown model %q", cfg.Model)
	}
	if cfg.DropoutOverride >= 0 {
		modelCfg.DropoutRate = cfg.DropoutOverride
	}
	if cfg.DropConnectOverride >= 0 {
		modelCfg.DropConnectRate = cfg.DropConnectOverride
	}
	if cfg.Dataset.Config().Resolution != modelCfg.Resolution {
		// The dataset resolution wins: models are resolution-agnostic.
		modelCfg.Resolution = cfg.Dataset.Config().Resolution
	}
	if cfg.GradBucketBytes == 0 {
		cfg.GradBucketBytes = DefaultGradBucketBytes
	}
	if cfg.GradBucketBytes < 4 {
		return nil, fmt.Errorf("replica: grad bucket size %d bytes must hold at least one fp32 value", cfg.GradBucketBytes)
	}
	if cfg.Dataset.Config().TrainSize < cfg.Mesh.Data {
		// Some ranks would hold empty train shards and the lockstep step
		// loop could never feed them — the divide-by-zero this used to hit
		// deep inside BatchIndices, surfaced as a configuration error. Data
		// shards by the mesh's data axis (model-group members share a shard).
		return nil, fmt.Errorf("replica: train split (%d samples) smaller than data axis %d: every data shard needs at least one sample", cfg.Dataset.Config().TrainSize, cfg.Mesh.Data)
	}
	if cfg.PrefetchDepth < 0 {
		return nil, fmt.Errorf("replica: prefetch depth %d must be >= 0", cfg.PrefetchDepth)
	}
	if cfg.PrefetchDepth == 0 {
		cfg.PrefetchDepth = DefaultPrefetchDepth
	}
	prov := cfg.Collective
	if prov.IsZero() {
		prov = comm.RingProvider()
	}
	if cfg.Telemetry != nil {
		// Instrumenting the provider covers the gradient world and every BN
		// group built from it below; the recorder observes each call's
		// algorithm, payload and rank wall time.
		prov = comm.InstrumentProvider(prov, cfg.Telemetry)
	}

	e := &Engine{cfg: cfg, scratch: tensor.NewScratch()}
	if cfg.Telemetry != nil {
		e.samples = make([]telemetry.StepSample, cfg.World)
	}

	// The device mesh carries everything: per-rank data-axis collectives for
	// gradients, BN statistics and metrics, and model-axis collectives for
	// the channel-sharded exchanges. At Model=1 the single data-axis world is
	// exactly the world-wide collective the engine always had.
	msh, err := mesh.Split(prov, cfg.Mesh)
	if err != nil {
		return nil, fmt.Errorf("replica: %v", err)
	}

	// BN groups: contiguous below 16, 2-D tiled above (§3.4). Each group is
	// its own collective world under the same provider. Groups tile the data
	// axis — the M ranks of a model group compute identical activations, so
	// including them would only double-count the same statistics — and each
	// model column gets its own copy of the group worlds.
	var groups [][]int
	if cfg.BNGroupSize > 1 {
		slice := cfg.Slice
		if slice.Rows == 0 {
			slice = topology.Slice{Rows: 1, Cols: (cfg.Mesh.Data + 1) / 2}
		}
		groups, err = topology.BNGroups(cfg.Mesh.Data, cfg.BNGroupSize, slice)
		if err != nil {
			return nil, fmt.Errorf("replica: %v", err)
		}
	}
	bnCollOf := make(map[int]comm.Collective, cfg.World)
	for m := 0; m < cfg.Mesh.Model; m++ {
		for _, g := range groups {
			gcolls, err := prov.Connect(len(g))
			if err != nil {
				return nil, fmt.Errorf("replica: BN group: %v", err)
			}
			for pos, d := range g {
				bnCollOf[cfg.Mesh.Rank(d, m)] = gcolls[pos]
			}
		}
	}

	// Every replica builds its model from the same seed, so all start with
	// bitwise-equal weights and BN statistics; rank 0's fixes the layout.
	models := make([]*efficientnet.Model, cfg.World)
	for r := range models {
		models[r] = efficientnet.New(rand.New(rand.NewSource(cfg.Seed)), modelCfg)
	}
	e.gradLen = models[0].NumParams()
	e.buckets = gradBuckets(e.gradLen, cfg.GradBucketBytes)
	spans := paramSpans(models[0].Params())
	e.paramBuckets, e.bucketParams = bucketMembership(spans, e.buckets)
	// Data-axis rank d owns Params()[cuts[d]:cuts[d+1]], floats
	// [bounds[d], bounds[d+1]) of the flat weight and gradient buffers.
	cuts, bounds := ownership(spans, cfg.Mesh.Data)

	// The global batch follows the data axis: model-group members consume
	// the same shard, so only Data distinct batches exist per step.
	globalBatch := cfg.Mesh.Data * cfg.PerReplicaBatch * cfg.GradAccumSteps
	e.stepsPerEpoch = (cfg.Dataset.Config().TrainSize + globalBatch - 1) / globalBatch

	for r := 0; r < cfg.World; r++ {
		d, mIdx := cfg.Mesh.Coords(r)
		m := models[r]
		opt, ok := optim.ByName(cfg.OptimizerName, cfg.WeightDecay)
		if !ok {
			return nil, fmt.Errorf("replica: unknown optimizer %q", cfg.OptimizerName)
		}
		rep := &Replica{
			Rank:      r,
			dataRank:  d,
			Model:     m,
			coll:      msh.DataColl(r),
			opt:       opt,
			train:     data.NewShard(cfg.Dataset, 0, d, cfg.Mesh.Data),
			val:       data.NewShard(cfg.Dataset, 1, d, cfg.Mesh.Data),
			ctx:       &nn.Ctx{Training: true, Precision: cfg.Precision, Scratch: e.scratch},
			arena:     tensor.NewArena(),
			gradBuf:   make([]float32, e.gradLen),
			weightBuf: make([]float32, e.gradLen),
			owned:     m.Params()[cuts[d]:cuts[d+1]],
			ownBounds: bounds,
			buckets:   e.buckets,
			accum:     cfg.GradAccumSteps,
			prefetch:  cfg.PrefetchDepth,
			batchSize: cfg.PerReplicaBatch,
			res:       modelCfg.Resolution,
		}
		// Weights move into the flat buffer before anything reads them, so
		// a parameter's weight span and gradient span coincide.
		if n := m.BindWeights(rep.weightBuf); n != e.gradLen {
			panic(fmt.Sprintf("replica: bound %d weight floats, gradLen is %d", n, e.gradLen))
		}
		if cfg.Mesh.Model > 1 {
			// The plan shards the 1×1 convs' channels across the model axis;
			// replicas of a model group must draw identical RNG streams (seeds
			// keyed by d below) so their replicated activations stay bitwise
			// equal and only the sharded exchanges need communication.
			rep.plan = buildShardPlan(m, mIdx, cfg.Mesh.Model, msh.ModelColl(r))
		}
		// The grad-ready wiring: parameters register with the replica's
		// tape and bind their gradients into gradBuf (backward accumulates
		// straight into the reduction payload — the flatten copy is gone),
		// and the hook counts buckets down as leaves become final.
		rep.tape = autograd.NewTape()
		m.RegisterParams(rep.tape)
		if n := m.BindGrads(rep.gradBuf); n != e.gradLen {
			panic(fmt.Sprintf("replica: bound %d gradient floats, gradLen is %d", n, e.gradLen))
		}
		rep.slot = make(map[*autograd.Value]int, len(m.Params()))
		for i, p := range m.Params() {
			rep.slot[p.Value] = i
		}
		rep.paramBuckets = e.paramBuckets
		rep.bucketParams = e.bucketParams
		rep.remaining = make([]int, len(e.buckets))
		rep.noOverlap = cfg.NoBackwardOverlap
		rep.tape.OnGradReady(rep.onGradReady)
		// The RNGs draw through counting streams so a snapshot can record —
		// and a resume can replay — their exact positions. The values are
		// bit-identical to the plain rand.NewSource construction. Seeds key
		// off the data coordinate: the M ranks of a model group see the same
		// batches and the same dropout/drop-path masks. The input pipeline
		// owns the training shard and the augmentation stream; it starts
		// lazily at the first Step (see ensurePipelines), so a RestoreState
		// between New and Step never renders batches it will discard.
		rep.installRNGs(ctxSeed(cfg.Seed, d), 0, 0)
		if cfg.EMADecay > 0 {
			rep.ema = optim.NewWeightEMA(cfg.EMADecay)
		}
		var red nn.StatsReducer
		if bc := bnCollOf[r]; bc != nil {
			red = &nn.CollectiveStats{Coll: bc}
		}
		for _, bn := range m.BatchNorms() {
			if red != nil {
				bn.Reducer = red
			}
			if cfg.BNMomentum > 0 {
				bn.Momentum = cfg.BNMomentum
			}
		}
		e.replicas = append(e.replicas, rep)
	}
	return e, nil
}

// ctxSeed derives replica rank's dropout/stochastic-depth RNG seed.
func ctxSeed(seed int64, rank int) int64 { return seed*1000 + int64(rank) }

// augSeed derives replica rank's augmentation RNG seed, which its input
// pipeline draws from.
func augSeed(seed int64, rank int) int64 { return seed*2000 + int64(rank) }

// installRNGs (re)builds the replica's dropout RNG and sets both recorded
// cursors: draw 0 for a fresh engine, a snapshot's cursors on restore. The
// augmentation cursor takes effect when the next pipeline starts.
func (r *Replica) installRNGs(ctxSeed int64, ctxDraws, augDraws uint64) {
	r.ctxStream = rng.Restore(ctxSeed, ctxDraws)
	r.ctx.RNG = r.ctxStream.Rand()
	r.augDraws = augDraws
}

// startPipeline (re)starts rep's training input pipeline at the given micro
// position, stopping any previous pipeline first.
func (e *Engine) startPipeline(rep *Replica, startEpoch, startStep int, augDraws uint64) error {
	if rep.pipe != nil {
		rep.pipe.Stop()
		rep.pipe = nil
	}
	pipe, err := data.NewPipeline(data.PipelineConfig{
		Shard:         rep.train,
		BatchSize:     e.cfg.PerReplicaBatch,
		StepsPerEpoch: e.stepsPerEpoch * e.cfg.GradAccumSteps,
		Depth:         rep.prefetch,
		Augment:       !e.cfg.NoAugment,
		AugmentSeed:   augSeed(e.cfg.Seed, rep.dataRank),
		StartEpoch:    startEpoch,
		StartStep:     startStep,
		AugDraws:      augDraws,
	})
	if err != nil {
		return fmt.Errorf("replica: input pipeline: %v", err)
	}
	rep.pipe = pipe
	return nil
}

// ensurePipelines starts the input pipelines at the engine's current
// position (step 0 for a fresh engine, the restored cursor after
// RestoreState). Called on the loop goroutine at the top of Step.
func (e *Engine) ensurePipelines() {
	if e.pipesUp {
		return
	}
	e.pipesUp = true
	startEpoch := e.stepCount / e.stepsPerEpoch
	startMicro := (e.stepCount % e.stepsPerEpoch) * e.cfg.GradAccumSteps
	for _, rep := range e.replicas {
		if rep.pipe == nil {
			if err := e.startPipeline(rep, startEpoch, startMicro, rep.augDraws); err != nil {
				// Unreachable in practice: New validates every input the
				// pipeline checks (shard geometry, batch size, position).
				panic(err.Error())
			}
		}
	}
}

// Close stops every replica's input pipeline, waits for their producer
// goroutines to exit and drops the replicas' step arenas. After Close,
// Step, Evaluate and EvaluateSerial return ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.closed = true
	for _, rep := range e.replicas {
		if rep.pipe != nil {
			rep.pipe.Stop()
		}
		rep.arena = nil
	}
}

// Prefetching reports the resolved input-pipeline depth.
func (e *Engine) Prefetching() int { return e.cfg.PrefetchDepth }

// GlobalBatch returns the effective global batch:
// mesh data axis × PerReplicaBatch × GradAccumSteps (the model axis shares
// data shards, so it does not multiply the batch).
func (e *Engine) GlobalBatch() int {
	return e.cfg.Mesh.Data * e.cfg.PerReplicaBatch * e.cfg.GradAccumSteps
}

// World returns the number of replicas.
func (e *Engine) World() int { return e.cfg.World }

// Mesh returns the engine's device-mesh shape (World×1 when unset).
func (e *Engine) Mesh() mesh.Shape { return e.cfg.Mesh }

// Dataset returns the dataset this replica draws its shards from.
func (r *Replica) Dataset() *data.Dataset { return r.train.D }

// StepsPerEpoch returns the number of global steps per training epoch.
func (e *Engine) StepsPerEpoch() int { return e.stepsPerEpoch }

// StepCount returns the number of global steps the engine has executed —
// after RestoreState, the restored position (the schedule resumes from
// exactly this step).
func (e *Engine) StepCount() int { return e.stepCount }

// Replica returns the rank-r worker (rank 0 is the conventional reference).
func (e *Engine) Replica(r int) *Replica { return e.replicas[r] }

// Step executes one synchronized global training step: every replica runs
// forward/backward on its shard of the batch and gradients are all-reduced
// in overlapped buckets through the configured collective. Each data-axis
// rank then averages and updates only the parameters it owns, and one
// in-place all-gather over the data axis copies every owner's new weights
// into its peers, so all replicas leave the step with bitwise-identical
// weights. It refuses to run on a closed engine or one poisoned by a failed
// state restore.
func (e *Engine) Step() (StepResult, error) {
	if err := e.checkUsable(); err != nil {
		return StepResult{}, err
	}
	e.ensurePipelines()
	epochF := float64(e.stepCount) / float64(e.stepsPerEpoch)
	lr := e.cfg.Schedule.LR(epochF)
	epoch := e.stepCount / e.stepsPerEpoch
	step := e.stepCount % e.stepsPerEpoch

	rec := e.cfg.Telemetry
	var stepStart time.Time
	if rec != nil {
		stepStart = time.Now()
	}

	results := make([]StepResult, len(e.replicas))
	var wg sync.WaitGroup
	for _, rep := range e.replicas {
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			var sample *telemetry.StepSample
			if rec != nil {
				sample = &e.samples[rep.Rank]
				sample.Reset()
			}
			results[rep.Rank] = rep.trainStep(epoch, step, lr, e.cfg.LabelSmoothing, e.cfg.Mesh.Data, sample)
		}(rep)
	}
	wg.Wait()
	e.stepCount++

	// All replicas all-reduced their metrics already; replica 0's view is
	// the global view.
	out := results[0]
	out.LR = lr
	out.Epoch = epochF

	if rec != nil {
		phases, starved := telemetry.MergeSamples(e.samples)
		rec.StepDone(telemetry.StepRecord{
			Step:        e.stepCount,
			Epoch:       epochF,
			Wall:        time.Since(stepStart),
			Phases:      phases,
			Loss:        out.Loss,
			Accuracy:    out.Accuracy,
			LR:          lr,
			GlobalBatch: e.GlobalBatch(),
			Starved:     starved,
		})
	}
	return out, nil
}

// trainStep is one replica's share of a global step. dataWorld is the mesh's
// data-axis size — the divisor of the gradient average (equal to the world
// size on a pure data-parallel run). sample, when non-nil, receives the
// replica's phase timings (every timing call is nil-safe and free when
// telemetry is off).
func (r *Replica) trainStep(epoch, step int, lr float64, smoothing float32, dataWorld int, sample *telemetry.StepSample) StepResult {
	// Gradients are bound into gradBuf (BindGrads), so clearing the buffer
	// once clears every parameter's gradient; ZeroGrad just marks each
	// bound leaf fresh. A parameter the backward never touches contributes
	// exactly the zeros written here — same as the old flatten's zero fill.
	for i := range r.gradBuf {
		r.gradBuf[i] = 0
	}
	for _, p := range r.Model.Params() {
		p.Value.ZeroGrad()
	}
	if r.plan != nil {
		// The plan's exchange ops time themselves into PhaseMPExchange; the
		// sample is step-scoped, so rebind it each step.
		r.plan.sample = sample
	}
	var starved0 int64
	if sample != nil {
		starved0 = r.pipe.Starved()
	}
	// The reduction stream: a background goroutine all-reduces each bucket
	// the moment the tape's grad-ready hooks complete it — mid-backward,
	// while the tape is still back-propagating through earlier layers (the
	// paper's §3.4 overlap). Dispatch order follows gradient readiness, so
	// output-side buckets reduce under the stem's backward compute. The
	// order is identical across replicas — the graph is structurally
	// identical on every rank (dropout and drop-path are mask multiplies,
	// never structural edits), so the lockstep SPMD property holds — and
	// bucket spans never overlap, so the stream reads a span only after
	// backward finished writing it (the channel send orders the two).
	ready := make(chan [2]int, len(r.buckets))
	streamDone := make(chan struct{})
	r.ready = ready
	r.sent = 0
	go func() {
		defer close(streamDone)
		for b := range ready {
			// PhaseReduce is this stream's collective busy time; the sample's
			// other phases belong to the loop goroutine, so the two writers
			// never touch the same phase (see telemetry.StepSample).
			t0 := sample.Now()
			r.coll.AllReduce(r.gradBuf[b[0]:b[1]])
			sample.Add(telemetry.PhaseReduce, t0)
		}
	}()

	// Run GradAccumSteps micro-batches, accumulating gradients locally
	// before the all-reduce (autograd accumulation across tapes).
	var lossSum float64
	correct := 0
	seen := 0
	for k := 0; k < r.accum; k++ {
		// The input pipeline rendered and augmented this micro-batch in the
		// background.
		t0 := sample.Now()
		pb, ok := r.pipe.Next()
		if !ok {
			panic("replica: input pipeline closed mid-training")
		}
		if pb.Epoch != epoch || pb.Step != step*r.accum+k {
			panic(fmt.Sprintf("replica: input pipeline out of lockstep: batch (%d,%d), want (%d,%d)", pb.Epoch, pb.Step, epoch, step*r.accum+k))
		}
		imgs, labels := pb.Images, pb.Labels
		// Advance the consumer-side augmentation cursor (see Batch.AugDraws).
		r.augDraws = pb.AugDraws
		sample.Add(telemetry.PhaseDataWait, t0)
		t0 = sample.Now()
		x := autograd.LeafIn(r.arena, imgs, false)
		var logits *autograd.Value
		if r.plan != nil {
			logits = r.plan.forward(r.ctx, r.Model, x)
		} else {
			logits = r.Model.Forward(r.ctx, x)
		}
		loss := autograd.SoftmaxCrossEntropy(logits, labels, smoothing)
		sample.Add(telemetry.PhaseForward, t0)
		t0 = sample.Now()
		if k == r.accum-1 && !r.noOverlap {
			// Arm bucket assembly for the accumulation window's final
			// backward: the hooks below count each bucket down and hand it
			// to the stream when its last parameter fires. Earlier
			// micro-batches only accumulate — their leaves are not final.
			copy(r.remaining, r.bucketParams)
			r.assembling = true
		}
		r.tape.Backward(loss)
		r.assembling = false
		sample.Add(telemetry.PhaseBackward, t0)

		pred := autograd.Argmax(logits.T)
		for i, l := range labels {
			if pred[i] == l {
				correct++
			}
		}
		lossSum += float64(loss.T.Data()[0]) * float64(len(labels))
		seen += len(labels)
		// The tape is done with the pixels; let the producer reuse them.
		r.pipe.Recycle(pb)
		// Nothing reads this micro-batch's graph again: the parameter
		// gradients it produced live in gradBuf, the reduction stream reads
		// only gradBuf, and the loss and predictions are counted above.
		// Releasing the graph's memory is the backward pass's last act (and,
		// under go test, Reset's NaN fill is not free), so it is timed as
		// backward.
		t0 = sample.Now()
		r.tape.Release()
		r.arena.Reset()
		sample.Add(telemetry.PhaseBackward, t0)
	}
	if sample != nil {
		sample.AddStarved(r.pipe.Starved() - starved0)
	}

	if r.noOverlap {
		// Serialized baseline: hand every bucket to the stream only now,
		// after backward completed — the pre-grad-ready engine, kept for
		// A/B measurement. Ascending order, as the flatten used to send.
		for _, b := range r.buckets {
			ready <- b
			r.sent++
		}
	}
	if r.sent != len(r.buckets) {
		// Every registered leaf fires exactly once per backward, so every
		// bucket must have been dispatched: anything else means an
		// unreduced span, which would silently desynchronize the replicas.
		panic(fmt.Sprintf("replica: dispatched %d/%d buckets; a parameter missed its grad-ready hook", r.sent, len(r.buckets)))
	}
	close(ready)
	// Backward is done; whatever reduction remains is exposed on the
	// critical path — the tail the overlap could not hide (at least the
	// stem's bucket, whose last gradient is backward's final product).
	t0 := sample.Now()
	<-streamDone
	sample.Add(telemetry.PhaseReduceTail, t0)
	if r.plan != nil {
		// The data axis reduced only the weight-gradient rows each model
		// rank owns (zeros elsewhere); the model axis now all-gathers the
		// slices so every rank holds the full gradient, and each model
		// column below shards the update along its own data axis.
		r.plan.exchangeGrads(r.gradBuf, sample)
	}
	t0 = sample.Now()
	// Sharded update: average and step only the owned run (every Grad
	// aliases gradBuf), then copy every owner's weights into this rank. The
	// stream is done with the data-axis endpoint, so the refresh is its only
	// call. At a data axis of 1 the rank owns everything and there is
	// nothing to refresh.
	lo, hi := r.ownBounds[r.dataRank], r.ownBounds[r.dataRank+1]
	inv := float32(1) / float32(dataWorld*r.accum)
	g := r.gradBuf[lo:hi]
	for i := range g {
		g[i] *= inv
	}
	r.opt.Step(r.owned, lr)
	if dataWorld > 1 {
		r.coll.AllGatherInPlace(r.weightBuf, r.ownBounds)
	}
	if r.ema != nil {
		r.ema.Update(r.Model.Params())
	}
	sample.Add(telemetry.PhaseOptimizer, t0)

	// Metrics: local sums all-reduced into global means.
	r.sums = [3]float64{lossSum, float64(correct), float64(seen)}
	r.coll.AllReduceF64(r.sums[:])
	return StepResult{
		Loss:     r.sums[0] / r.sums[2],
		Accuracy: r.sums[1] / r.sums[2],
	}
}

// onGradReady is the tape's grad-ready hook, called on the loop goroutine
// mid-backward when parameter leaf v has received its last gradient
// contribution of the pass. During the accumulation window's final backward
// it counts the leaf out of each bucket it overlaps and hands completed
// buckets to the reduction stream — early (output-side) buckets all-reduce
// while the tape is still back-propagating through the stem.
func (r *Replica) onGradReady(v *autograd.Value) {
	if !r.assembling {
		return
	}
	i, ok := r.slot[v]
	if !ok {
		panic("replica: grad-ready hook for an unknown parameter leaf")
	}
	pb := r.paramBuckets[i]
	for b := pb[0]; b <= pb[1]; b++ {
		r.remaining[b]--
		if r.remaining[b] == 0 {
			r.ready <- r.buckets[b]
			r.sent++
		}
	}
}

// Evaluate runs distributed evaluation (§3.3): every replica scores its
// shard of the validation split in eval mode, and the correct/total counts
// are all-reduced. maxSamplesPerReplica caps work for quick checks
// (0 = full shard). It refuses to run on a closed engine or one poisoned by
// a failed state restore — half-restored weights would score as a model
// nobody trained.
func (e *Engine) Evaluate(maxSamplesPerReplica int) (float64, error) {
	if err := e.checkUsable(); err != nil {
		return 0, err
	}
	accs := make([]float64, len(e.replicas))
	var wg sync.WaitGroup
	for _, rep := range e.replicas {
		wg.Add(1)
		go func(rep *Replica) {
			defer wg.Done()
			accs[rep.Rank] = rep.evaluate(maxSamplesPerReplica)
		}(rep)
	}
	wg.Wait()
	return accs[0], nil
}

// ValLen returns the size of this replica's validation shard — the serial
// evaluation work one worker performs in the sharded loop.
func (r *Replica) ValLen() int { return r.val.Len() }

// EvaluateSerial scores up to maxSamples validation images (0 = the whole
// split) on replica 0 alone while every other replica idles — the
// serialized-evaluation structure of TPUEstimator (§3.3). It scores the same
// model Evaluate would: EMA shadow weights when enabled, eval mode, the
// training precision policy. Returns the accuracy and the number of images
// actually scored. Like Evaluate, it refuses to run on a closed or poisoned
// engine.
func (e *Engine) EvaluateSerial(maxSamples int) (float64, int, error) {
	r := e.replicas[0]
	if err := e.checkUsable(); err != nil {
		return 0, 0, err
	}
	if r.ema != nil && r.ema.Steps() > 0 {
		mustSwap(r.ema, r.Model.Params())
		defer mustSwap(r.ema, r.Model.Params())
	}
	shard := data.NewShard(r.train.D, 1, 0, 1) // the whole validation split
	n := shard.Len()
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	if n == 0 {
		return 0, 0, nil
	}
	correct, total := r.scoreShard(shard, n)
	if total == 0 {
		return 0, 0, nil
	}
	return float64(correct) / float64(total), total, nil
}

// scoreShard scores the first n validation samples of shard in eval mode and
// returns the correct/total counts. The batches are rendered ahead by a
// bounded pipeline drawing on this replica's reusable evaluation buffers
// (allocated once, on first use); the ragged final batch renders only the
// samples actually scored. n must be >= 1 and shard non-empty.
func (r *Replica) scoreShard(shard *data.Shard, n int) (correct, total int) {
	bs := r.batchSize
	if r.evalPool == nil {
		r.evalPool = data.NewBufferPool(r.prefetch+1, bs, r.res)
	}
	p, err := data.NewPipeline(data.PipelineConfig{
		Shard:         shard,
		BatchSize:     bs,
		StepsPerEpoch: (n + bs - 1) / bs,
		Depth:         r.prefetch,
		MaxSamples:    n,
		Pool:          r.evalPool,
	})
	if err != nil {
		// Unreachable: a non-empty shard, n >= 1 and bs >= 1 pass every
		// check NewPipeline makes.
		panic("replica: evaluation pipeline: " + err.Error())
	}
	defer p.Stop()
	// Evaluation runs on the model frozen once per evaluation (after any EMA
	// swap): BN on running statistics, regularizers off, weights packed once,
	// activations in one workspace for every batch.
	plan, ws := efficientnet.Freeze(r.Model, r.ctx.Precision), efficientnet.NewWorkspace()
	defer plan.Release()
	defer ws.Release()
	for {
		b, ok := p.Next()
		if !ok {
			return correct, total
		}
		pred := autograd.Argmax(plan.Infer(ws, b.Images))
		for i := 0; i < b.N; i++ {
			if pred[i] == b.Labels[i] {
				correct++
			}
		}
		total += b.N
		p.Recycle(b)
	}
}

func (r *Replica) evaluate(maxSamples int) float64 {
	// Evaluate the EMA ("shadow") weights when enabled, as the reference
	// EfficientNet setup does; swap back afterwards.
	if r.ema != nil && r.ema.Steps() > 0 {
		mustSwap(r.ema, r.Model.Params())
		defer mustSwap(r.ema, r.Model.Params())
	}
	n := r.val.Len()
	if maxSamples > 0 && maxSamples < n {
		n = maxSamples
	}
	correct, total := 0, 0
	if n > 0 {
		// Empty validation shards (split smaller than the world) score
		// nothing but still join the metric all-reduce below — the
		// collective is lockstep across all ranks.
		correct, total = r.scoreShard(r.val, n)
	}
	sums := []float64{float64(correct), float64(total)}
	r.coll.AllReduceF64(sums)
	if sums[1] == 0 {
		return 0
	}
	return sums[0] / sums[1]
}

// mustSwap exchanges live and EMA shadow weights. The engine's param set
// never changes after construction, so a Swap mismatch here is a broken
// invariant, not a recoverable condition.
func mustSwap(ema *optim.WeightEMA, params []*nn.Param) {
	if err := ema.Swap(params); err != nil {
		panic("replica: " + err.Error())
	}
}

// WeightsInSync verifies all replicas hold bitwise-identical parameters —
// the core invariant of synchronous data parallelism. Returns the first
// divergent parameter name, or "" when in sync.
func (e *Engine) WeightsInSync() string {
	ref := e.replicas[0].Model.Params()
	for _, rep := range e.replicas[1:] {
		ps := rep.Model.Params()
		for i, p := range ps {
			a, b := ref[i].Data().Data(), p.Data().Data()
			for j := range a {
				if a[j] != b[j] {
					return fmt.Sprintf("%s[%d] (rank %d)", p.Name, j, rep.Rank)
				}
			}
		}
	}
	return ""
}
