package train

import (
	"fmt"

	"effnetscale/internal/bf16"
	"effnetscale/internal/comm"
	"effnetscale/internal/data"
	"effnetscale/internal/mesh"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
	"effnetscale/internal/topology"
)

// Option configures a Session. Options are applied in order, so later
// options override earlier ones — presets first, overrides after:
//
//	train.New(train.MiniRecipe(), train.WithEpochs(3))
type Option func(*config) error

// Decay names an LR decay family for WithLinearScaling.
type Decay string

// The decay families of §3.2: polynomial for the LARS rows of Table 2,
// exponential (staircase ×0.97 / 2.4 epochs) for the RMSProp rows.
const (
	PolynomialDecay  Decay = "polynomial"
	ExponentialDecay Decay = "exponential"
	CosineDecay      Decay = "cosine"
	ConstantDecay    Decay = "constant"
)

// DecayByName converts a flag string into a Decay, erroring on unknowns.
func DecayByName(name string) (Decay, error) {
	switch d := Decay(name); d {
	case PolynomialDecay, ExponentialDecay, CosineDecay, ConstantDecay:
		return d, nil
	default:
		return "", fmt.Errorf("train: unknown decay %q (want polynomial, exponential, cosine, constant)", name)
	}
}

// bnGroupWorld marks "BN group spans the whole world", resolved once the
// world size is known.
const bnGroupWorld = -1

// config accumulates option state until New validates and builds the engine.
type config struct {
	// engine is the replica configuration the engine options write into.
	// New fills in what only it can resolve: Schedule, BNGroupSize (the
	// bnGroupWorld sentinel), a zero Mesh, and Telemetry.
	engine replica.Config
	// scheduleFn defers schedule construction until the global batch and
	// epoch count are known — what lets presets express the §3.2 linear
	// scaling rule without knowing the final world size.
	scheduleFn func(globalBatch int, epochs int) schedule.Schedule

	epochs      int
	evalEvery   int
	evalSamples int
	targetAcc   float64
	strategy    EvalStrategy
	callbacks   []Callback

	snapshotDir   string
	snapshotEvery int
	keepLast      int
	resume        string
	elastic       bool

	telemetryOn    bool
	telemetrySinks []telemetry.Sink
}

func defaultConfig() *config {
	return &config{
		engine: replica.Config{
			Model:           "pico",
			World:           1,
			PerReplicaBatch: 32,
			GradAccumSteps:  1,
			OptimizerName:   "sgd",
			BNGroupSize:     1,
			Precision:       bf16.DefaultPolicy,
			Seed:            42,
			BNMomentum:      0.9,
		},
		scheduleFn: func(int, int) schedule.Schedule {
			return schedule.Constant(0.05)
		},
		epochs:      1,
		evalSamples: 64,
		strategy:    Distributed{},
	}
}

// Options combines several options into one — the building block presets are
// made of.
func Options(opts ...Option) Option {
	return func(c *config) error {
		for _, opt := range opts {
			if opt == nil {
				continue
			}
			if err := opt(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithModel selects the EfficientNet variant (pico, nano, micro, b0..b7).
func WithModel(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("train: model name must not be empty")
		}
		c.engine.Model = name
		return nil
	}
}

// WithDataset provides the (sharded) training and validation data.
func WithDataset(ds *data.Dataset) Option {
	return func(c *config) error {
		if ds == nil {
			return fmt.Errorf("train: dataset must not be nil")
		}
		c.engine.Dataset = ds
		return nil
	}
}

// WithData builds a SynthImageNet dataset from cfg and uses it.
func WithData(cfg data.Config) Option {
	return func(c *config) error {
		c.engine.Dataset = data.New(cfg)
		return nil
	}
}

// WithWorld sets the number of data-parallel replicas.
func WithWorld(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: world %d must be >= 1", n)
		}
		c.engine.World = n
		return nil
	}
}

// WithMesh lays the ranks out as a d×m device mesh: d data-parallel groups
// of m model-parallel shards each (§5 hybrid parallelism). The world size
// becomes d×m; the global batch is d × per-replica batch × grad-accum — the
// model axis shards parameters, it does not multiply data. WithMesh(d, 1) is
// pure data parallelism, bit-for-bit identical to WithWorld(d). A later
// WithWorld must agree with d×m (New rejects the combination otherwise).
func WithMesh(d, m int) Option {
	return func(c *config) error {
		s := mesh.Shape{Data: d, Model: m}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		c.engine.Mesh = s
		c.engine.World = s.World()
		return nil
	}
}

// WithPerReplicaBatch sets each replica's local batch size.
func WithPerReplicaBatch(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: per-replica batch %d must be >= 1", n)
		}
		c.engine.PerReplicaBatch = n
		return nil
	}
}

// WithGradAccum runs n micro-batches per replica per global step,
// accumulating gradients locally before the all-reduce — the effective
// global batch grows ×n without growing per-replica memory.
func WithGradAccum(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: grad-accum steps %d must be >= 1", n)
		}
		c.engine.GradAccumSteps = n
		return nil
	}
}

// WithOptimizer selects the optimizer by name (sgd, rmsprop, lars) with the
// given L2 weight decay.
func WithOptimizer(name string, weightDecay float64) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("train: optimizer name must not be empty")
		}
		if weightDecay < 0 {
			return fmt.Errorf("train: weight decay %g must be >= 0", weightDecay)
		}
		c.engine.OptimizerName = name
		c.engine.WeightDecay = weightDecay
		return nil
	}
}

// WithSchedule uses an explicit LR schedule, bypassing the linear scaling
// rule.
func WithSchedule(s schedule.Schedule) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("train: schedule must not be nil")
		}
		c.scheduleFn = func(int, int) schedule.Schedule { return s }
		return nil
	}
}

// WithLinearScaling applies the §3.2 recipe: a base LR per 256 samples
// scaled linearly by the global batch, linear warmup over warmupEpochs, then
// the chosen decay to the end of training.
func WithLinearScaling(lrPer256, warmupEpochs float64, decay Decay) Option {
	return func(c *config) error {
		if lrPer256 <= 0 {
			return fmt.Errorf("train: lr-per-256 %g must be > 0", lrPer256)
		}
		if warmupEpochs < 0 {
			return fmt.Errorf("train: warmup epochs %g must be >= 0", warmupEpochs)
		}
		if _, err := DecayByName(string(decay)); err != nil {
			return err
		}
		c.scheduleFn = func(globalBatch, epochs int) schedule.Schedule {
			peak := schedule.ScaledLR(lrPer256, globalBatch)
			var inner schedule.Schedule
			switch decay {
			case ExponentialDecay:
				inner = schedule.Exponential{Peak: peak, Rate: 0.97, DecayEpochs: 2.4, Staircase: true}
			case CosineDecay:
				inner = schedule.Cosine{Peak: peak, TotalEpochs: float64(epochs)}
			case ConstantDecay:
				inner = schedule.Constant(peak)
			default:
				inner = schedule.Polynomial{Peak: peak, End: 0, TotalEpochs: float64(epochs), Power: 2}
			}
			return schedule.Warmup{Epochs: warmupEpochs, Inner: inner}
		}
		return nil
	}
}

// WithCollective selects the all-reduce algorithm for gradient, metrics and
// batch-norm statistics reduction: comm.RingProvider() (the default),
// comm.TreeProvider(), comm.Torus2DProvider(slice) — the paper's
// hierarchical 2-D torus scheme running for real — or comm.AutoProvider,
// which picks per call from the payload size via the α-β cost model.
func WithCollective(p comm.Provider) Option {
	return func(c *config) error {
		if p.IsZero() {
			return fmt.Errorf("train: collective provider must not be the zero value (use comm.RingProvider() etc.)")
		}
		c.engine.Collective = p
		return nil
	}
}

// WithGradBuckets sets the bucket size, in bytes, for overlapped gradient
// reduction: each bucket all-reduces on a background stream the moment the
// backward pass has produced the last gradient it covers (the autograd tape's
// grad-ready hooks). Smaller buckets start communicating earlier; larger
// buckets amortize per-collective latency.
func WithGradBuckets(bytes int) Option {
	return func(c *config) error {
		if bytes < 4 {
			return fmt.Errorf("train: grad bucket size %d bytes must hold at least one fp32 value", bytes)
		}
		c.engine.GradBucketBytes = bytes
		return nil
	}
}

// WithoutBackwardOverlap disables in-backward gradient reduction: every
// bucket is dispatched only after the backward pass completes, serializing
// compute and communication. Bucket spans and averaging order are unchanged,
// so trained weights are bit-for-bit identical to the overlapped path — this
// is the A/B baseline for measuring what the overlap hides (the telemetry
// reduce vs reduce_tail split).
func WithoutBackwardOverlap() Option {
	return func(c *config) error {
		c.engine.NoBackwardOverlap = true
		return nil
	}
}

// WithPrefetch sets the per-replica input-pipeline depth: the number of
// rendered batches buffered ahead of the compute loop, with rendering and
// augmentation running on a background goroutine per replica (default
// replica.DefaultPrefetchDepth). Every depth delivers bit-for-bit identical
// batches, so this is purely a throughput knob. Call Session.Close when done
// with a Session to release the pipeline goroutines.
func WithPrefetch(depth int) Option {
	return func(c *config) error {
		if depth < 1 {
			return fmt.Errorf("train: prefetch depth %d must be >= 1", depth)
		}
		c.engine.PrefetchDepth = depth
		return nil
	}
}

// WithBNGroup sets the distributed batch-norm group size (1 = local BN).
// Must divide the world size.
func WithBNGroup(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: BN group size %d must be >= 1", n)
		}
		c.engine.BNGroupSize = n
		return nil
	}
}

// WithBNGroupAll spans the batch-norm group over all replicas, whatever the
// world size turns out to be.
func WithBNGroupAll() Option {
	return func(c *config) error {
		c.engine.BNGroupSize = bnGroupWorld
		return nil
	}
}

// WithSlice sets the TPU slice used for 2-D BN group tiling (§3.4).
func WithSlice(s topology.Slice) Option {
	return func(c *config) error {
		c.engine.Slice = s
		return nil
	}
}

// WithPrecision sets the mixed-precision policy (bf16 convolutions by
// default, as in the paper's §3.5).
func WithPrecision(p bf16.Policy) Option {
	return func(c *config) error {
		c.engine.Precision = p
		return nil
	}
}

// WithLabelSmoothing sets softmax cross-entropy label smoothing
// (EfficientNet uses 0.1).
func WithLabelSmoothing(eps float64) Option {
	return func(c *config) error {
		if eps < 0 || eps >= 1 {
			return fmt.Errorf("train: label smoothing %g must be in [0, 1)", eps)
		}
		c.engine.LabelSmoothing = float32(eps)
		return nil
	}
}

// WithSeed fixes model init and per-replica RNG streams.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.engine.Seed = seed
		return nil
	}
}

// WithDropout overrides the model's dropout and stochastic-depth rates.
// Pass ModelDefaultRate to keep the model family's published rates (the
// PaperRecipe/MiniRecipe choice). Sessions built without this option run
// with both rates at 0 — the right default for short deterministic
// mini-scale runs.
func WithDropout(dropout, dropConnect float64) Option {
	return func(c *config) error {
		c.engine.DropoutOverride = dropout
		c.engine.DropConnectOverride = dropConnect
		return nil
	}
}

// ModelDefaultRate keeps the model family's published dropout /
// drop-connect rate when passed to WithDropout.
const ModelDefaultRate = -1

// WithoutAugmentation disables training-time data augmentation (needed by
// determinism tests where per-replica augmentation RNGs would diverge).
func WithoutAugmentation() Option {
	return func(c *config) error {
		c.engine.NoAugment = true
		return nil
	}
}

// WithBNMomentum overrides the batch-norm running-statistics EMA decay.
// Short mini-scale runs want ~0.9; the TF full-scale default is 0.99.
func WithBNMomentum(m float64) Option {
	return func(c *config) error {
		if m < 0 || m >= 1 {
			return fmt.Errorf("train: BN momentum %g must be in [0, 1)", m)
		}
		c.engine.BNMomentum = m
		return nil
	}
}

// WithEMA maintains an exponential moving average of the weights and
// evaluates the EMA weights, as the reference EfficientNet setup does.
func WithEMA(decay float64) Option {
	return func(c *config) error {
		if decay <= 0 || decay >= 1 {
			return fmt.Errorf("train: EMA decay %g must be in (0, 1)", decay)
		}
		c.engine.EMADecay = decay
		return nil
	}
}

// WithEpochs bounds training length.
func WithEpochs(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: epochs %d must be >= 1", n)
		}
		c.epochs = n
		return nil
	}
}

// WithEvalEvery sets the evaluation cadence in steps (0 = once per epoch).
// The final step always evaluates.
func WithEvalEvery(steps int) Option {
	return func(c *config) error {
		if steps < 0 {
			return fmt.Errorf("train: eval cadence %d must be >= 0", steps)
		}
		c.evalEvery = steps
		return nil
	}
}

// WithEvalSamples caps per-replica evaluation work (0 = full shard).
func WithEvalSamples(perReplica int) Option {
	return func(c *config) error {
		if perReplica < 0 {
			return fmt.Errorf("train: eval samples %d must be >= 0", perReplica)
		}
		c.evalSamples = perReplica
		return nil
	}
}

// WithTarget stops training early once evaluation accuracy reaches target
// (0 disables). Implemented as a StopAtAccuracy callback over the loop.
func WithTarget(acc float64) Option {
	return func(c *config) error {
		if acc < 0 || acc > 1 {
			return fmt.Errorf("train: target accuracy %g must be in [0, 1]", acc)
		}
		c.targetAcc = acc
		return nil
	}
}

// WithEvalStrategy selects the evaluation strategy (Distributed by default).
func WithEvalStrategy(s EvalStrategy) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("train: eval strategy must not be nil")
		}
		c.strategy = s
		return nil
	}
}

// WithCallbacks appends callbacks; they fire in registration order.
func WithCallbacks(cbs ...Callback) Option {
	return func(c *config) error {
		for _, cb := range cbs {
			if cb == nil {
				return fmt.Errorf("train: callback must not be nil")
			}
			c.callbacks = append(c.callbacks, cb)
		}
		return nil
	}
}

// WithBestCheckpoint saves replica 0's model to path after every evaluation
// that improves on the best accuracy so far. Save failures do not abort
// training; they surface in Result.CheckpointErrors.
func WithBestCheckpoint(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("train: checkpoint path must not be empty")
		}
		c.callbacks = append(c.callbacks, BestCheckpoint(path))
		return nil
	}
}

// WithSnapshotDir sets the directory periodic training-state snapshots are
// written to (step-<n>.ckpt files, created on demand). Required alongside
// WithSnapshotEvery; the same directory is what WithResume typically points
// back at.
func WithSnapshotDir(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("train: snapshot directory must not be empty")
		}
		c.snapshotDir = dir
		return nil
	}
}

// WithSnapshotEvery writes a full training-state snapshot (weights, BN
// statistics, optimizer slots, EMA shadow, schedule position, per-replica
// RNG and data-pipeline cursors) every n global steps. The capture is a
// synchronous memory copy at the step boundary; encoding and the atomic
// fsync+rename write happen on a background writer goroutine, off the
// training critical path. Failures surface in Result.CheckpointErrors and
// through OnCheckpoint callbacks, never by aborting training.
func WithSnapshotEvery(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("train: snapshot cadence %d must be >= 1 step", n)
		}
		c.snapshotEvery = n
		return nil
	}
}

// WithKeepLast bounds how many periodic snapshots are retained on disk:
// after each successful write, older step-<n>.ckpt files beyond the n most
// recent are deleted (0, the default, keeps all).
func WithKeepLast(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("train: keep-last %d must be >= 0", n)
		}
		c.keepLast = n
		return nil
	}
}

// WithTelemetry turns on the step-phase telemetry subsystem and fans its
// records out to the given sinks (telemetry.NewJSONL, telemetry.NewCSV,
// telemetry.NewConsole, or your own) in registration order. The engine then
// times every step's phases (data wait, forward, backward, the
// gradient-reduce overlap window and its exposed tail, optimizer apply),
// instruments every collective call (algorithm, payload bytes, rank wall
// time), counts input-pipeline starvation, and aggregates evaluation and
// snapshot-write latencies — surfaced per step/epoch through the sinks and
// as the run-wide Result.Telemetry summary.
//
// Zero sinks is valid and cheap: the recorder only aggregates the summary,
// allocating nothing per step. Without this option telemetry is compiled
// out of the hot path entirely (no clock reads). Session.Close flushes the
// sinks.
func WithTelemetry(sinks ...telemetry.Sink) Option {
	return func(c *config) error {
		for _, s := range sinks {
			if s == nil {
				return fmt.Errorf("train: telemetry sink must not be nil")
			}
		}
		c.telemetryOn = true
		c.telemetrySinks = append(c.telemetrySinks, sinks...)
		return nil
	}
}

// WithResume restores full training state before the first Run: path names
// either a snapshot file or a snapshot directory, where the newest readable
// step-<n>.ckpt wins (falling back past files a crash truncated mid-write).
// The session must be built from the same configuration as the interrupted
// run — model, world, batch geometry, optimizer, seed, collective, dataset
// — which is validated against the snapshot's recorded fingerprint. The
// resumed run continues the original trajectory bit-for-bit;
// Result.Resumed reports that it happened.
func WithResume(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("train: resume path must not be empty")
		}
		c.resume = path
		return nil
	}
}

// WithElasticResume is WithResume with the world-size requirement relaxed:
// the snapshot is resharded (internal/elastic) to the session's world before
// restoring, re-partitioning per-rank state and re-factorizing the batch
// geometry so the global batch — and with it the optimizer trajectory and LR
// schedule — is preserved. The configured per-replica batch and accumulation
// act as a factorization hint; the solver overrides them when they do not
// divide the preserved global batch. Resuming at the snapshot's own world is
// still bit-for-bit; at a different world the run is statistically
// continuous (same samples, same schedule, floating-point-level divergence).
func WithElasticResume(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("train: resume path must not be empty")
		}
		c.resume = path
		c.elastic = true
		return nil
	}
}
