package replica

import (
	"fmt"
	"maps"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/mesh"
)

// This file composes the full training-state snapshot: the model weights and
// BN statistics, optimizer slots, EMA shadow, step position, and every
// replica's private state (BN group statistics diverge across groups; RNG
// streams diverge per rank). A snapshot captured at a step boundary and
// restored into an engine built from the same configuration continues the
// training trajectory bit-for-bit — the correctness contract the resume
// tests enforce.
//
// Synchronous data parallelism keeps weights and the EMA shadow bitwise
// identical across replicas (the WeightsInSync invariant), so those are
// captured once from rank 0 and restored into every rank. Optimizer slots
// live only on the data-axis rank that owns their parameter (see owner.go):
// the "optim" component merges every owner's slots, one rank per data
// coordinate, into the same component a single optimizer over all
// parameters would write, and a restore validates it against every
// parameter before each rank keeps its own. BN running statistics and RNG
// cursors are captured per replica.
//
// The configuration fingerprint is split in two. Trajectory fields pin what
// is being trained (model, optimizer, seed, data, the global batch);
// topology fields pin how the work is laid out across ranks (world size,
// per-replica batch, accumulation, BN groups, collective). A plain resume
// requires both to match bit-for-bit; an elastic resume (internal/elastic)
// validates only the trajectory and rewrites the topology — world-changed
// resume is statistically continuous, not bit-for-bit, because fp summation
// order and per-rank RNG streams move with the topology. Trajectory-neutral
// knobs (prefetch depth, eval strategy and cadence) are in neither; the LR
// schedule is a function and cannot be fingerprinted, so the train package
// checks it (Session.scheduleCurve).

// Snapshot component keys owned by the engine. "model" is owned by the
// checkpoint.ModelState codec; callers (the train package) may add further
// components — "engine", "model", "optim", "ema" and "replica/<r>" are
// reserved.
const (
	engineComponent  = "engine"
	optimComponent   = "optim"
	emaComponent     = "ema"
	replicaComponent = "replica/%d"
)

// StateComponents returns the component keys a snapshot of this engine
// carries — what RestoreState requires and strict callers check against.
func (e *Engine) StateComponents() []string {
	keys := []string{engineComponent, "model", optimComponent}
	if e.cfg.EMADecay > 0 {
		keys = append(keys, emaComponent)
	}
	for r := range e.replicas {
		keys = append(keys, fmt.Sprintf(replicaComponent, r))
	}
	return keys
}

// TrajectoryFingerprint renders the configuration fields that pin the
// training trajectory independent of how it is partitioned across ranks:
// what model trains on what data with what arithmetic, at what global batch.
// The batch appears only as its world-independent product — the strided data
// shard maps global step s to the same sample set under any (world, batch,
// accum) factorization of the same global batch, which is what makes elastic
// resharding statistically sound. Two engines with equal trajectory
// fingerprints train the same trajectory up to fp summation order.
func (e *Engine) TrajectoryFingerprint() string {
	return e.trajectoryFP(e.GlobalBatch())
}

// trajectoryFP is TrajectoryFingerprint with the global batch injected —
// RestoreState uses it to ask "would the trajectories match if only the
// batch factorization differed?" when shaping the world-mismatch error.
func (e *Engine) trajectoryFP(globalBatch int) string {
	c := e.cfg
	d := c.Dataset.Config()
	return fmt.Sprintf(
		"model=%s globalbatch=%d opt=%s wd=%g conv_bf16=%t smooth=%g seed=%d dropout=%g dropconnect=%g augment=%t bnmomentum=%g ema=%g data[classes=%d train=%d val=%d res=%d noise=%g seed=%d]",
		c.Model, globalBatch, c.OptimizerName, c.WeightDecay,
		c.Precision.ConvBF16, c.LabelSmoothing, c.Seed,
		c.DropoutOverride, c.DropConnectOverride, !c.NoAugment, c.BNMomentum, c.EMADecay,
		d.NumClasses, d.TrainSize, d.ValSize, d.Resolution, d.NoiseStd, d.Seed,
	)
}

// TopologyFingerprint renders the configuration fields that pin how the
// trajectory is laid out across ranks: the batch factorization, BN grouping,
// and the reduction machinery (collective algorithm, bucket size, mesh).
// These fields change fp summation order and per-rank state partitioning but
// not the trajectory's statistics — exactly what elastic resharding is
// allowed to rewrite.
func (e *Engine) TopologyFingerprint() string {
	c := e.cfg
	return fmt.Sprintf(
		"world=%d batch=%d accum=%d bngroup=%d slice=%dx%d collective=%s bucket=%d mesh=%s",
		c.World, c.PerReplicaBatch, c.GradAccumSteps, c.BNGroupSize,
		c.Slice.Rows, c.Slice.Cols, e.replicas[0].coll.Algorithm(), c.GradBucketBytes, c.Mesh,
	)
}

// CaptureState snapshots the engine's complete training state. Call it at a
// step boundary (between Step calls — e.g. from a training-loop hook); the
// returned snapshot deep-copies everything, so it may be handed to an async
// writer while training continues.
func (e *Engine) CaptureState() (*checkpoint.Snapshot, error) {
	if e.failed != nil {
		return nil, e.errPoisoned()
	}
	snap := checkpoint.NewSnapshot()

	eng := checkpoint.Component{}
	eng.PutI64("step", int64(e.stepCount))
	eng.PutStr("mesh", e.cfg.Mesh.String())
	// The fingerprint pair plus the raw geometry scalars: what elastic
	// resharding validates (trajectory), rewrites (topology, world, batch,
	// accum) and weights BN statistics by (trainsize → per-rank shard sizes).
	eng.PutStr("trajectory", e.TrajectoryFingerprint())
	eng.PutStr("topology", e.TopologyFingerprint())
	eng.PutI64("world", int64(e.cfg.World))
	eng.PutI64("batch", int64(e.cfg.PerReplicaBatch))
	eng.PutI64("accum", int64(e.cfg.GradAccumSteps))
	eng.PutI64("trainsize", int64(e.cfg.Dataset.Config().TrainSize))
	if err := snap.Add(engineComponent, eng); err != nil {
		return nil, err
	}

	r0 := e.replicas[0]
	if err := snap.Capture(checkpoint.ModelState(r0.Model)); err != nil {
		return nil, err
	}
	oc := checkpoint.Component{}
	for d := 0; d < e.cfg.Mesh.Data; d++ {
		// Owners' keys are disjoint apart from the optimizer's name and step
		// counter, which every rank holds equal.
		owner := e.replicas[e.cfg.Mesh.Rank(d, 0)]
		c, err := owner.opt.CaptureState(owner.owned)
		if err != nil {
			return nil, fmt.Errorf("replica: capture optimizer: %w", err)
		}
		maps.Copy(oc, c)
	}
	if err := snap.Add(optimComponent, oc); err != nil {
		return nil, err
	}
	if r0.ema != nil {
		ec, err := r0.ema.CaptureState(r0.Model.Params())
		if err != nil {
			return nil, fmt.Errorf("replica: capture EMA: %w", err)
		}
		if err := snap.Add(emaComponent, ec); err != nil {
			return nil, err
		}
	}
	for r, rep := range e.replicas {
		rc := checkpoint.Component{}
		for i, bn := range rep.Model.BatchNorms() {
			rc.PutF32(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Shape(), bn.RunningMean.Data())
			rc.PutF32(fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Shape(), bn.RunningVar.Data())
		}
		rc.PutI64("augdraws", int64(rep.augDraws))
		rc.PutI64("ctxdraws", int64(rep.ctxStream.Draws()))
		if err := snap.Add(fmt.Sprintf(replicaComponent, r), rc); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// checkUsable returns ErrClosed after Close and the poisoned-engine error
// after a failed restore: the two states in which the engine refuses to
// train or evaluate.
func (e *Engine) checkUsable() error {
	if e.closed {
		return ErrClosed
	}
	if e.failed != nil {
		return e.errPoisoned()
	}
	return nil
}

// errPoisoned renders the descriptive error a poisoned engine returns from
// every training entry point.
func (e *Engine) errPoisoned() error {
	return fmt.Errorf("replica: engine unusable after a failed state restore (%v); build a fresh engine and restore again", e.failed)
}

// validateFingerprint checks the snapshot's configuration against the
// engine's before any state is touched. The trajectory must match; then a
// plain snapshot must also match the topology fingerprint (bit-for-bit
// resume), while a resharded one ("elastic" marker) must match the geometry
// it was rewritten for — its remaining topology fields are free to differ,
// since resharding already forfeits bit-for-bit continuity.
func (e *Engine) validateFingerprint(eng checkpoint.Component) error {
	savedTraj, err := eng.Str("trajectory")
	if err != nil {
		return err
	}
	keys := [3]string{"world", "batch", "accum"}
	cur := [3]int{e.cfg.World, e.cfg.PerReplicaBatch, e.cfg.GradAccumSteps}
	var saved [3]int
	for i, key := range keys {
		v, err := eng.I64(key)
		if err != nil {
			return err
		}
		saved[i] = int(v)
	}
	_, resharded := eng["elastic"]

	// Friendly world-mismatch detection runs before the generic trajectory
	// diff: a pure data-parallel world change (same model, data, seed — only
	// the rank layout moved) deserves a message naming the two world sizes
	// and the escape hatch, not two walls of fingerprint text. Comparing
	// against trajectoryFP at the *snapshot's* global batch makes the check
	// insensitive to the batch refactorization a world change implies.
	if !resharded && saved[0] != cur[0] && e.cfg.Mesh.Model == 1 &&
		savedTraj == e.trajectoryFP(saved[0]*saved[1]*saved[2]) {
		return fmt.Errorf(
			"replica: snapshot was taken at world %d but the engine runs world %d; a plain resume only restores into an identical topology — resume with elastic resharding (effnettrain -resume -elastic, or elastic.Reshard) to re-partition per-rank state across the new world",
			saved[0], cur[0])
	}
	if fp := e.TrajectoryFingerprint(); savedTraj != fp {
		return fmt.Errorf("replica: snapshot configuration does not match engine:\n  snapshot: %s\n  engine:   %s", savedTraj, fp)
	}
	if resharded {
		for i, key := range keys {
			if saved[i] != cur[i] {
				return fmt.Errorf("replica: snapshot was resharded for %s=%d but the engine runs %s=%d", key, saved[i], key, cur[i])
			}
		}
		return nil
	}
	savedTopo, err := eng.Str("topology")
	if err != nil {
		return err
	}
	if fp := e.TopologyFingerprint(); savedTopo != fp {
		return fmt.Errorf("replica: snapshot topology configuration does not match engine (the trajectory is compatible; elastic resharding can adapt the snapshot — effnettrain -resume -elastic, or elastic.Reshard):\n  snapshot: %s\n  engine:   %s", savedTopo, fp)
	}
	return nil
}

// restoreOwnedSlots restores the optimizer from the merged component,
// validated against every parameter, and then keeps only the slots of the
// parameters this rank owns: a capture over the owned run holds exactly
// those slots and the counters, and restoring it replaces the rest.
func (r *Replica) restoreOwnedSlots(oc checkpoint.Component) error {
	if err := r.opt.RestoreState(r.Model.Params(), oc); err != nil {
		return err
	}
	mine, err := r.opt.CaptureState(r.owned)
	if err != nil {
		return err
	}
	return r.opt.RestoreState(r.owned, mine)
}

// replicaRestore is one rank's validated per-replica state, staged during
// RestoreState's validation pass and applied only after everything checked
// out.
type replicaRestore struct {
	rc       checkpoint.Component
	augDraws int64
	ctxDraws int64
}

// RestoreState overwrites the engine's entire training state from a
// snapshot: weights, BN statistics (per replica), optimizer slots, EMA
// shadow, RNG stream positions, step count, and the input-pipeline cursors
// (pipelines are restarted at the restored position). The snapshot must come
// from an engine with a matching configuration (see validateFingerprint);
// every component the engine expects must be present and internally valid.
//
// Validation runs before any mutation, so a rejected snapshot leaves the
// engine untouched and usable. If applying the state fails partway despite
// that (a malformed blob the validation pass could not see), the engine is
// poisoned: Step, Evaluate and CaptureState return a descriptive error until
// a fresh engine is built — nobody trains on half-restored state.
func (e *Engine) RestoreState(snap *checkpoint.Snapshot) error {
	if e.failed != nil {
		return e.errPoisoned()
	}
	eng, err := snap.Component(engineComponent)
	if err != nil {
		return err
	}
	// Check the mesh shape before the generic fingerprint diff when a hybrid
	// layout is involved on either side: re-gridding the same ranks (say a
	// 2x2 run resumed as 4x1) deserves a message naming the two shapes, not a
	// wall of fingerprint text. Pure data-parallel world changes (4x1 vs 2x1)
	// keep the configuration error.
	savedMesh, err := eng.Str("mesh")
	if err != nil {
		return err
	}
	saved, err := mesh.ParseShape(savedMesh)
	if err != nil {
		return fmt.Errorf("replica: snapshot %w", err)
	}
	if saved != e.cfg.Mesh && (saved.Model > 1 || e.cfg.Mesh.Model > 1) {
		return fmt.Errorf(
			"replica: snapshot was taken on a %s mesh but the engine runs a %s mesh; training state is only portable across identical mesh shapes",
			saved, e.cfg.Mesh)
	}
	if err := e.validateFingerprint(eng); err != nil {
		return err
	}
	step, err := eng.I64("step")
	if err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("replica: snapshot step %d is negative", step)
	}

	// Replicas share one architecture, so rank 0 vouches for the model
	// component restoring into all of them.
	mc, err := snap.Component("model")
	if err != nil {
		return err
	}
	if err := checkpoint.CheckModelState(e.replicas[0].Model, mc); err != nil {
		return fmt.Errorf("replica: model state: %w", err)
	}
	oc, err := snap.Component(optimComponent)
	if err != nil {
		return err
	}
	var ec checkpoint.Component
	if e.cfg.EMADecay > 0 {
		if ec, err = snap.Component(emaComponent); err != nil {
			return err
		}
	} else if _, ok := snap.Components[emaComponent]; ok {
		// Unreachable while EMA decay is part of the fingerprint, but kept:
		// restoring EMA state into an engine that never evaluates it would
		// silently change what "the model" means at eval time.
		return fmt.Errorf("replica: snapshot has EMA state but the engine runs without EMA")
	}

	// Validation pass: every per-replica component must be present with
	// correctly shaped BN blobs and sane RNG cursors before anything mutates.
	states := make([]replicaRestore, len(e.replicas))
	for r, rep := range e.replicas {
		rc, err := snap.Component(fmt.Sprintf(replicaComponent, r))
		if err != nil {
			return err
		}
		for i, bn := range rep.Model.BatchNorms() {
			if _, err := rc.F32(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Shape()); err != nil {
				return fmt.Errorf("replica: rank %d: %w", r, err)
			}
			if _, err := rc.F32(fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Shape()); err != nil {
				return fmt.Errorf("replica: rank %d: %w", r, err)
			}
		}
		augDraws, err := rc.I64("augdraws")
		if err != nil {
			return fmt.Errorf("replica: rank %d: %w", r, err)
		}
		ctxDraws, err := rc.I64("ctxdraws")
		if err != nil {
			return fmt.Errorf("replica: rank %d: %w", r, err)
		}
		if augDraws < 0 || ctxDraws < 0 {
			return fmt.Errorf("replica: rank %d: negative RNG cursor", r)
		}
		states[r] = replicaRestore{rc: rc, augDraws: augDraws, ctxDraws: ctxDraws}
	}

	// Mutation pass: from here on a failure leaves some ranks restored and
	// others not, so it poisons the engine rather than trusting the caller
	// to notice "rebuild it" in a doc comment.
	if err := e.applyState(snap, oc, ec, states); err != nil {
		e.failed = err
		return e.errPoisoned()
	}
	e.stepCount = int(step)
	e.pipesUp = false
	return nil
}

// applyState performs RestoreState's mutation phase over pre-validated
// components. Any error here means the engine holds a mix of old and new
// state.
func (e *Engine) applyState(snap *checkpoint.Snapshot, oc, ec checkpoint.Component, states []replicaRestore) error {
	for r, rep := range e.replicas {
		// Weights and EMA shadow are replica-identical; restore the same
		// components into each rank's own storage.
		if err := snap.Restore(checkpoint.ModelState(rep.Model)); err != nil {
			return err
		}
		if err := rep.restoreOwnedSlots(oc); err != nil {
			return fmt.Errorf("replica: restore optimizer (rank %d): %w", r, err)
		}
		if ec != nil {
			if err := rep.ema.RestoreState(rep.Model.Params(), ec); err != nil {
				return fmt.Errorf("replica: restore EMA (rank %d): %w", r, err)
			}
		}

		st := states[r]
		for i, bn := range rep.Model.BatchNorms() {
			mean, err := st.rc.F32(fmt.Sprintf("bn/%d/mean", i), bn.RunningMean.Shape())
			if err != nil {
				return fmt.Errorf("replica: rank %d: %w", r, err)
			}
			variance, err := st.rc.F32(fmt.Sprintf("bn/%d/var", i), bn.RunningVar.Shape())
			if err != nil {
				return fmt.Errorf("replica: rank %d: %w", r, err)
			}
			copy(bn.RunningMean.Data(), mean)
			copy(bn.RunningVar.Data(), variance)
		}
		// RNG streams are seeded by the data-axis coordinate (model-group
		// members share a stream), matching the seeding New performs.
		rep.installRNGs(ctxSeed(e.cfg.Seed, rep.dataRank), uint64(st.ctxDraws), uint64(st.augDraws))
		// Any running pipeline holds the pre-restore cursor; stop it and
		// let the next Step lazily start a fresh one at the restored
		// micro-batch position (ensurePipelines).
		if rep.pipe != nil {
			rep.pipe.Stop()
			rep.pipe = nil
		}
	}
	return nil
}
