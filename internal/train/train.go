package train

import (
	"fmt"
	"strings"
	"time"

	"effnetscale/internal/checkpoint"
	"effnetscale/internal/elastic"
	"effnetscale/internal/mesh"
	"effnetscale/internal/replica"
	"effnetscale/internal/schedule"
	"effnetscale/internal/telemetry"
)

// loopComponent is the snapshot component the Session owns on top of the
// engine's: loop-level progress that is not engine state (best accuracy so
// far, which seeds the resumed run's peak tracking).
const loopComponent = "trainloop"

// EvalPoint is one evaluation snapshot.
type EvalPoint struct {
	Step     int
	Epoch    float64
	Accuracy float64
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Wall is this evaluation's own wall-clock cost.
	Wall time.Duration
	// SerialSamples is the evaluation samples the busiest single worker
	// processed — the per-point form of Result.EvalSerialSamples.
	SerialSamples int
}

// Result summarizes a finished run.
type Result struct {
	History []EvalPoint
	// PeakAccuracy is the best evaluation accuracy so far, including a
	// resumed session's pre-resume best, so a resumed run reports the peak
	// the uninterrupted run would.
	PeakAccuracy float64
	// TimeToPeak is the elapsed wall-clock time at which this Run first
	// raised the peak — the paper's Figure 1 metric. It stays zero when the
	// peak predates this Run (wall-clock is not resumable state).
	TimeToPeak time.Duration
	TotalTime  time.Duration
	// StepsRun counts steps executed by this Run call; a resumed run counts
	// only post-resume steps (EvalPoint.Step carries the global numbering).
	StepsRun int
	// EvalSerialSamples counts evaluation samples processed serially by the
	// busiest worker — the deterministic measure of the §3.3 bottleneck
	// (the Estimator strategy processes world× more than Distributed).
	EvalSerialSamples int
	// EvalWallTime accumulates wall-clock time spent in evaluation.
	EvalWallTime time.Duration
	// Stopped reports that Session.Stop (a callback such as StopAfterStep
	// or StopAtAccuracy) ended the run before all epochs.
	Stopped bool
	// ReachedGoal reports that a StopAtAccuracy callback (WithTarget) ended
	// the run at its target accuracy.
	ReachedGoal bool
	// CheckpointsSaved counts successful checkpoint and snapshot writes.
	CheckpointsSaved int
	// CheckpointErrors collects checkpoint- and snapshot-save failures.
	// Saving never aborts training, but the failures are first-class
	// results — not whispers through a progress log.
	CheckpointErrors []error
	// Resumed reports that this run continued from a WithResume snapshot
	// rather than from step 0.
	Resumed bool
	// Telemetry is the run's aggregated step-phase/throughput/overlap
	// summary — nil unless the session was built WithTelemetry.
	Telemetry *telemetry.Summary
}

// Session is an assembled training job: a validated configuration, a live
// replica engine, and the callbacks and evaluation strategy that observe it.
type Session struct {
	cfg       *config
	eng       *replica.Engine
	callbacks []Callback

	stop bool
	cur  *Result

	// writer persists periodic snapshots asynchronously (nil without
	// WithSnapshotEvery).
	writer *checkpoint.Writer
	// rec aggregates step-phase telemetry (nil without WithTelemetry).
	rec *telemetry.Recorder
	// best is the best evaluation accuracy seen across the session's
	// lifetime, including the pre-resume history restored from a snapshot.
	best float64
	// restoredBest is the best accuracy the resume snapshot recorded —
	// frozen at restore time so callbacks like BestCheckpoint can seed
	// their improvement thresholds without racing s.best's live updates.
	restoredBest float64
	// resumeStep/resumeFrom record a WithResume restore; resumePending
	// marks that the next Run should start mid-loop at resumeStep.
	resumeStep    int
	resumeFrom    string
	resumePending bool
}

// New validates opts eagerly and assembles the engine. All configuration
// errors — unknown model or optimizer, a BN group that does not divide the
// world, a missing dataset — surface here, before any training work.
func New(opts ...Option) (*Session, error) {
	c := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("train: nil Option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	ec := &c.engine
	if ec.Dataset == nil {
		return nil, fmt.Errorf("train: a dataset is required (use WithDataset, WithData, or a preset)")
	}
	if ec.Mesh == (mesh.Shape{}) {
		ec.Mesh = mesh.Shape{Data: ec.World, Model: 1}
	}
	// BN groups tile the data axis: the m model shards of a group compute
	// identical activations, so only data-parallel replicas contribute
	// distinct batch statistics. replica.New checks that the group divides
	// the axis and that the mesh covers the world.
	if ec.BNGroupSize == bnGroupWorld {
		ec.BNGroupSize = ec.Mesh.Data
	}
	if c.snapshotEvery > 0 && c.snapshotDir == "" {
		return nil, fmt.Errorf("train: WithSnapshotEvery needs WithSnapshotDir")
	}
	// An elastic resume must solve the batch geometry before the engine and
	// schedule exist: the snapshot's global batch wins over the configured
	// per-replica batch and accumulation, which act only as a factorization
	// hint. The resolved geometry feeds the engine, the LR schedule and the
	// lr-curve fingerprint, so a preserved global batch keeps all three
	// identical to the interrupted run's.
	var elasticSnap *checkpoint.Snapshot
	var elasticSrc string
	if c.resume != "" && c.elastic {
		if ec.Mesh.Model > 1 {
			return nil, fmt.Errorf("train: elastic resume only re-partitions the data axis; the %s mesh has a model axis", ec.Mesh)
		}
		snap, src, err := checkpoint.ReadSnapshotPath(c.resume)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		plan, err := elastic.Plan(snap, ec.Mesh, elastic.WithGeometryHint(ec.PerReplicaBatch, ec.GradAccumSteps))
		if err != nil {
			return nil, fmt.Errorf("train: resume %s: %w", src, err)
		}
		ec.PerReplicaBatch, ec.GradAccumSteps = plan.PerReplicaBatch, plan.GradAccum
		elasticSnap, elasticSrc = snap, src
	}
	ec.Schedule = c.scheduleFn(ec.Mesh.Data*ec.PerReplicaBatch*ec.GradAccumSteps, c.epochs)

	var rec *telemetry.Recorder
	if c.telemetryOn {
		rec = telemetry.NewRecorder(c.telemetrySinks...)
		ec.Telemetry = rec
	}

	eng, err := replica.New(*ec)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	s := &Session{cfg: c, eng: eng, callbacks: c.callbacks, rec: rec}
	if c.targetAcc > 0 {
		s.callbacks = append(s.callbacks, StopAtAccuracy(c.targetAcc))
	}
	if c.resume != "" {
		var rerr error
		if c.elastic {
			rerr = s.restoreElastic(elasticSnap, elasticSrc)
		} else {
			rerr = s.restoreFrom(c.resume)
		}
		if rerr != nil {
			eng.Close()
			return nil, rerr
		}
	}
	if c.snapshotEvery > 0 {
		w, err := checkpoint.NewWriter(c.snapshotDir, c.keepLast)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("train: snapshot writer: %w", err)
		}
		s.writer = w
	}
	return s, nil
}

// restoreFrom loads a snapshot (a file, or the newest readable one in a
// directory) and restores the engine and session progress from it.
func (s *Session) restoreFrom(path string) error {
	snap, src, err := checkpoint.ReadSnapshotPath(path)
	if err != nil {
		return fmt.Errorf("train: resume: %w", err)
	}
	return s.restoreSnapshot(snap, src)
}

// restoreElastic reshards the pre-loaded snapshot to this session's world
// and restores from the result. New already solved the geometry from the
// same snapshot, so the reshard here is either the identity (same world —
// the original snapshot passes through, keeping the bit-for-bit path) or the
// per-rank re-partition.
func (s *Session) restoreElastic(snap *checkpoint.Snapshot, src string) error {
	ec := &s.cfg.engine
	resharded, err := elastic.Reshard(snap, ec.Mesh, elastic.WithGeometryHint(ec.PerReplicaBatch, ec.GradAccumSteps))
	if err != nil {
		return fmt.Errorf("train: resume %s: %w", src, err)
	}
	return s.restoreSnapshot(resharded, src)
}

// restoreSnapshot restores the engine and session progress from a loaded
// snapshot.
func (s *Session) restoreSnapshot(snap *checkpoint.Snapshot, src string) error {
	// Strict component accounting: everything in the snapshot must be
	// either engine state or the session's loop component. Anything else
	// means the snapshot came from a richer setup and dropping it silently
	// would not be a faithful resume. Surplus replica/<r> components are
	// exempt — they mean the snapshot's world is larger than this session's,
	// and the engine's fingerprint validation turns that into the world-
	// mismatch error that names both sizes and the elastic escape hatch.
	expected := map[string]bool{loopComponent: true}
	for _, k := range s.eng.StateComponents() {
		expected[k] = true
	}
	for _, k := range snap.Keys() {
		if !expected[k] && !strings.HasPrefix(k, "replica/") {
			return fmt.Errorf("train: resume %s: snapshot carries unknown component %q", src, k)
		}
	}
	if err := s.eng.RestoreState(snap); err != nil {
		return fmt.Errorf("train: resume %s: %w", src, err)
	}
	// The loop component is optional (engine-level snapshots lack it); when
	// present it must be well-formed and agree with this session's length
	// and schedule.
	if lc, ok := snap.Components[loopComponent]; ok {
		if err := s.restoreLoopComponent(lc); err != nil {
			return fmt.Errorf("train: resume %s: %w", src, err)
		}
	}
	s.resumeStep = s.eng.StepCount()
	s.resumeFrom = src
	s.resumePending = true
	return nil
}

// ResumedFrom reports the snapshot a WithResume session restored from and
// the step it restored to (ok=false for fresh sessions).
func (s *Session) ResumedFrom() (path string, step int, ok bool) {
	return s.resumeFrom, s.resumeStep, s.resumeFrom != ""
}

// Engine exposes the underlying replica engine for direct inspection
// (WeightsInSync, Replica, StepsPerEpoch, ...).
func (s *Session) Engine() *replica.Engine { return s.eng }

// Close flushes and stops the async snapshot writer, flushes the telemetry
// sinks, and releases the engine's input-pipeline goroutines and buffers.
// The returned error is a telemetry sink flush failure (a full disk under a
// JSONL sink, say) — snapshot-write failures surfaced during the run via
// Result.CheckpointErrors. A Run after Close fails with an error wrapping
// replica.ErrClosed. Idempotent.
func (s *Session) Close() error {
	if s.writer != nil {
		s.writer.Close()
	}
	var err error
	if s.rec != nil {
		if cerr := s.rec.Close(); cerr != nil {
			err = fmt.Errorf("train: telemetry: %w", cerr)
		}
	}
	s.eng.Close()
	return err
}

// Telemetry exposes the session's telemetry recorder (nil unless built
// WithTelemetry) for direct Summary reads between Runs.
func (s *Session) Telemetry() *telemetry.Recorder { return s.rec }

// GlobalBatch returns the effective global batch size.
func (s *Session) GlobalBatch() int { return s.eng.GlobalBatch() }

// Schedule returns the resolved LR schedule (after linear scaling).
func (s *Session) Schedule() schedule.Schedule { return s.cfg.engine.Schedule }

// Strategy returns the configured evaluation strategy.
func (s *Session) Strategy() EvalStrategy { return s.cfg.strategy }

// Stop requests that the run end after the current step. Safe to call from
// callbacks; outside callbacks it takes effect at the next step boundary.
func (s *Session) Stop() { s.stop = true }

// markGoal records that an accuracy target was reached (see StopAtAccuracy).
func (s *Session) markGoal() {
	if s.cur != nil {
		s.cur.ReachedGoal = true
	}
}

// NotifyCheckpoint records a checkpoint save attempt on the current Result
// and broadcasts it to every callback's OnCheckpoint. Callbacks that write
// checkpoints call this so failures become first-class run results.
func (s *Session) NotifyCheckpoint(path string, err error) {
	if s.cur != nil {
		if err != nil {
			s.cur.CheckpointErrors = append(s.cur.CheckpointErrors, err)
		} else {
			s.cur.CheckpointsSaved++
		}
	}
	for _, cb := range s.callbacks {
		cb.OnCheckpoint(s, path, err)
	}
}

// LoadCheckpoint restores the "model" component of a snapshot — a
// SaveCheckpoint file, or any full training snapshot — into every replica,
// so training starts from those weights with the replicas bitwise in sync.
// It restores weights only — optimizer slots, EMA, RNG streams and the loop
// position start fresh; use WithResume for bit-for-bit continuation of an
// interrupted run.
func (s *Session) LoadCheckpoint(path string) error {
	snap, src, err := checkpoint.ReadSnapshotPath(path)
	if err != nil {
		return fmt.Errorf("train: load checkpoint: %w", err)
	}
	for r := 0; r < s.eng.World(); r++ {
		// The codec validates before it writes and replicas share one
		// architecture, so a rejection happens at rank 0 with nothing changed.
		if err := snap.Restore(checkpoint.ModelState(s.eng.Replica(r).Model)); err != nil {
			return fmt.Errorf("train: load checkpoint %s: %w", src, err)
		}
	}
	return nil
}

// SaveCheckpoint writes replica 0's model to path as a model-only snapshot
// (atomic, fsynced write) — the file serving and LoadCheckpoint read.
func (s *Session) SaveCheckpoint(path string) error {
	snap := checkpoint.NewSnapshot()
	err := snap.Capture(checkpoint.ModelState(s.eng.Replica(0).Model))
	if err == nil {
		err = checkpoint.WriteSnapshotFile(path, snap)
	}
	if err != nil {
		return fmt.Errorf("train: save checkpoint: %w", err)
	}
	return nil
}

// Snapshot synchronously captures the full training state — everything a
// WithResume session needs for a bit-for-bit continuation — and writes it
// to path atomically. Call it between Runs or from a callback (the engine
// is quiescent at both points); periodic in-run snapshots are the
// WithSnapshotEvery option's job.
func (s *Session) Snapshot(path string) error {
	snap, err := s.captureSnapshot()
	if err != nil {
		return fmt.Errorf("train: snapshot: %w", err)
	}
	if err := checkpoint.WriteSnapshotFile(path, snap); err != nil {
		return fmt.Errorf("train: snapshot: %w", err)
	}
	return nil
}

// scheduleCurve samples the resolved LR schedule across the configured run
// — the session-level half of the resume fingerprint. The engine validates
// everything it owns, but the schedule is a function the engine cannot
// inspect; a dense bit-exact sample of its values catches a resume launched
// with different -lr-per-256 / warmup / decay / epochs options, any of
// which would silently fork the trajectory.
func (s *Session) scheduleCurve() []float64 {
	const samples = 64
	curve := make([]float64, samples+1)
	total := float64(s.cfg.epochs)
	for i := range curve {
		curve[i] = s.Schedule().LR(total * float64(i) / samples)
	}
	return curve
}

// captureSnapshot captures engine state plus the session's loop component.
func (s *Session) captureSnapshot() (*checkpoint.Snapshot, error) {
	snap, err := s.eng.CaptureState()
	if err != nil {
		return nil, err
	}
	lc := checkpoint.Component{}
	lc.PutF64("best", s.best)
	lc.PutI64("epochs", int64(s.cfg.epochs))
	lc.PutF64s("lr-curve", s.scheduleCurve())
	if err := snap.Add(loopComponent, lc); err != nil {
		return nil, err
	}
	return snap, nil
}

// restoreLoopComponent validates the session-level fingerprint and restores
// loop progress. The component is optional (engine-level snapshots lack it),
// but when present it must agree with this session's configuration.
func (s *Session) restoreLoopComponent(lc checkpoint.Component) error {
	best, err := lc.F64("best")
	if err != nil {
		return err
	}
	epochs, err := lc.I64("epochs")
	if err != nil {
		return err
	}
	if int(epochs) != s.cfg.epochs {
		return fmt.Errorf("snapshot trained toward %d epochs, session configured with %d — a resumed run must keep the original length (it shapes the LR schedule)", epochs, s.cfg.epochs)
	}
	curve, err := lc.F64s("lr-curve")
	if err != nil {
		return err
	}
	cur := s.scheduleCurve()
	if len(curve) != len(cur) {
		return fmt.Errorf("snapshot LR curve has %d samples, session's has %d", len(curve), len(cur))
	}
	for i := range curve {
		if curve[i] != cur[i] {
			return fmt.Errorf("LR schedule differs from the interrupted run's (at %.1f%% of training: snapshot %g, session %g) — resume with the original schedule options", 100*float64(i)/float64(len(curve)-1), curve[i], cur[i])
		}
	}
	s.best = best
	s.restoredBest = best
	return nil
}

// drainWriterEvents surfaces finished async snapshot writes as checkpoint
// results. Called on the loop goroutine (and after Flush at run end), so
// callbacks keep their synchronous-dispatch guarantee.
func (s *Session) drainWriterEvents() {
	if s.writer == nil {
		return
	}
	for _, ev := range s.writer.Drain() {
		if s.rec != nil {
			rec := telemetry.SnapshotRecord{Step: ev.Step, Path: ev.Path, Wall: ev.Elapsed}
			if ev.Err != nil {
				rec.Err = ev.Err.Error()
			}
			s.rec.SnapshotDone(rec)
		}
		s.NotifyCheckpoint(ev.Path, ev.Err)
	}
}

// Run trains the engine through the configured epochs — the §3.3
// train+eval loop — and returns the run's history. Each step runs the
// engine, then the OnStep callbacks; on the eval cadence and at the final
// step the strategy evaluates and OnEval fires; then finished snapshot
// writes are reported and, on the snapshot cadence, the state is captured
// with that evaluation already recorded (the quiescent boundary a
// bit-for-bit resume needs); last, a Stop request ends the run without a
// final evaluation.
//
// The first Run after WithResume continues from the restored step with the
// original step numbering and evaluation cadence. Any other Run trains
// another round of epochs on the same weights.
func (s *Session) Run() (*Result, error) {
	s.stop = false
	res := &Result{}
	s.cur = res
	startStep := 0
	if s.resumePending {
		startStep = s.resumeStep
		s.resumePending = false
		res.Resumed = true
	}
	spe := s.eng.StepsPerEpoch()
	total := s.cfg.epochs * spe
	evalEvery := s.cfg.evalEvery
	if evalEvery <= 0 {
		evalEvery = spe
	}
	if s.rec != nil {
		s.rec.BeginRun(telemetry.RunInfo{
			World:         s.eng.World(),
			GlobalBatch:   s.eng.GlobalBatch(),
			StepsPerEpoch: spe,
			TotalSteps:    total,
		})
	}
	start := time.Now()
	// step is the global 1-based step number, stable across a resume.
	for step := startStep + 1; step <= total; step++ {
		stepRes, err := s.eng.Step()
		if err != nil {
			return nil, fmt.Errorf("train: step %d: %w", step, err)
		}
		res.StepsRun++
		for _, cb := range s.callbacks {
			cb.OnStep(s, step, stepRes)
		}
		if step%evalEvery == 0 || step == total {
			if err := s.evaluate(res, step, start); err != nil {
				return nil, err
			}
		}
		s.drainWriterEvents()
		if s.writer != nil && step%s.cfg.snapshotEvery == 0 {
			// Capture is synchronous (a memory copy of the state); encoding
			// and the fsynced write happen on the writer goroutine while
			// training continues.
			if snap, err := s.captureSnapshot(); err != nil {
				s.NotifyCheckpoint(s.cfg.snapshotDir, err)
			} else {
				s.writer.Enqueue(int64(step), snap)
			}
		}
		if s.stop {
			res.Stopped = true
			break
		}
	}
	res.TotalTime = time.Since(start)
	res.PeakAccuracy = s.best
	if s.writer != nil {
		// The run's Result owns every snapshot outcome: wait for in-flight
		// writes and fold their events in before handing the Result out.
		s.writer.Flush()
		s.drainWriterEvents()
	}
	if s.rec != nil {
		sum := s.rec.Summary()
		res.Telemetry = &sum
	}
	for _, cb := range s.callbacks {
		cb.OnEnd(s, res)
	}
	s.cur = nil
	return res, nil
}

// evaluate scores the model after global step step, records the point in
// res and the session's best accuracy, and notifies telemetry and the
// OnEval callbacks.
func (s *Session) evaluate(res *Result, step int, runStart time.Time) error {
	t0 := time.Now()
	acc, serial, err := s.cfg.strategy.Evaluate(s.eng, s.cfg.evalSamples)
	if err != nil {
		return fmt.Errorf("train: eval at step %d: %w", step, err)
	}
	wall := time.Since(t0)
	pt := EvalPoint{
		Step:          step,
		Epoch:         float64(step) / float64(s.eng.StepsPerEpoch()),
		Accuracy:      acc,
		Elapsed:       time.Since(runStart),
		Wall:          wall,
		SerialSamples: serial,
	}
	res.History = append(res.History, pt)
	res.EvalSerialSamples += serial
	res.EvalWallTime += pt.Wall
	if acc > s.best {
		s.best = acc
		res.TimeToPeak = pt.Elapsed
	}
	if s.rec != nil {
		s.rec.EvalDone(telemetry.EvalRecord{
			Step:          pt.Step,
			Epoch:         pt.Epoch,
			Accuracy:      pt.Accuracy,
			Wall:          pt.Wall,
			SerialSamples: pt.SerialSamples,
		})
	}
	for _, cb := range s.callbacks {
		cb.OnEval(s, pt)
	}
	return nil
}
