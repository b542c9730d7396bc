package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"effnetscale/internal/comm"
)

// Phase indexes the sections of one training step that the engine times.
type Phase int

// The step phases, in critical-path order. PhaseReduce is the collective
// busy time on the background gradient-reduction stream — buckets dispatch
// from inside the backward pass the moment their last gradient lands (the
// autograd tape's grad-ready hooks), so most of it runs concurrently with
// PhaseBackward itself — while PhaseReduceTail is the exposed part: the wait
// between backward finishing and the last bucket's all-reduce completing.
// Overlap efficiency is the fraction of PhaseReduce hidden behind other work
// (see StepRecord.OverlapEfficiency).
const (
	// PhaseDataWait is time spent obtaining input batches: blocking on the
	// prefetch pipeline.
	PhaseDataWait Phase = iota
	// PhaseForward is model forward plus loss computation.
	PhaseForward
	// PhaseBackward is the backward pass over the autograd tape.
	PhaseBackward
	// PhaseReduce is gradient-collective busy time on the overlap stream,
	// most of it concurrent with PhaseBackward (grad-ready bucket dispatch).
	PhaseReduce
	// PhaseReduceTail is reduce time not hidden inside the backward pass.
	PhaseReduceTail
	// PhaseMPExchange is model-axis exchange time on a hybrid mesh: the
	// all-gather that rebuilds full gradients from the per-shard slices after
	// the data-axis reduction. Zero on pure data-parallel runs (M=1).
	PhaseMPExchange
	// PhaseOptimizer is gradient averaging, the optimizer update and EMA.
	PhaseOptimizer
	// NumPhases bounds the phase index space.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"data_wait", "forward", "backward", "reduce", "reduce_tail", "mp_exchange", "optimizer",
}

// String returns the phase's snake_case name (column/field name in sinks).
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// StepSample accumulates one replica's phase timings for one step. All
// methods are nil-receiver-safe and record nothing on a nil sample — the
// disabled fast path costs one pointer check per call and performs no clock
// reads, no allocation and no synchronization, which is what keeps the
// no-telemetry hot path within noise of the uninstrumented engine.
//
// A sample is written by its replica's goroutines only; distinct phases may
// be written from distinct goroutines (the reduction stream owns PhaseReduce)
// as long as no two goroutines touch the same phase concurrently.
type StepSample struct {
	phases  [NumPhases]time.Duration
	starved int64
}

// Now returns the current time, or the zero time on a nil (disabled) sample
// so the hot path never reads the clock when telemetry is off.
func (s *StepSample) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Add accrues the time since t0 to phase p. No-op on a nil sample.
func (s *StepSample) Add(p Phase, t0 time.Time) {
	if s == nil {
		return
	}
	s.phases[p] += time.Since(t0)
}

// AddStarved accrues input-pipeline starvation events. No-op on nil.
func (s *StepSample) AddStarved(n int64) {
	if s == nil {
		return
	}
	s.starved += n
}

// Reset clears the sample for the next step. No-op on nil.
func (s *StepSample) Reset() {
	if s == nil {
		return
	}
	*s = StepSample{}
}

// Phase returns the accumulated duration of phase p (0 on nil).
func (s *StepSample) Phase(p Phase) time.Duration {
	if s == nil {
		return 0
	}
	return s.phases[p]
}

// MergeSamples folds per-replica samples into one global view: phase
// durations take the maximum across replicas (the slowest replica is the
// critical path of a lockstep step), starvation counts sum (every starved
// pipeline represents real stalled work).
func MergeSamples(samples []StepSample) (phases [NumPhases]time.Duration, starved int64) {
	for i := range samples {
		for p := Phase(0); p < NumPhases; p++ {
			if d := samples[i].phases[p]; d > phases[p] {
				phases[p] = d
			}
		}
		starved += samples[i].starved
	}
	return phases, starved
}

// CollectiveTotals aggregates per-collective accounting over a window: how
// many collective calls ran, the local payload bytes they carried, and the
// rank wall-clock time spent inside them (summed over all ranks — divide by
// the world size for a per-rank mean).
type CollectiveTotals struct {
	Count int64
	Bytes int64
	Busy  time.Duration
}

func (c *CollectiveTotals) add(o CollectiveTotals) {
	c.Count += o.Count
	c.Bytes += o.Bytes
	c.Busy += o.Busy
}

// StepRecord is one global training step, aggregated across replicas.
type StepRecord struct {
	// Step is the 1-based global step number (resume-stable).
	Step int
	// Epoch is the fractional epoch at this step.
	Epoch float64
	// Wall is the step's wall-clock time.
	Wall time.Duration
	// Phases holds the critical-path (max-across-replicas) phase durations.
	Phases [NumPhases]time.Duration
	// Loss / Accuracy / LR mirror the step's training metrics.
	Loss     float64
	Accuracy float64
	LR       float64
	// GlobalBatch is the images consumed by this step.
	GlobalBatch int
	// Collectives accounts every collective call attributed to this step
	// (all ranks, all worlds — gradients, BN statistics, metrics).
	Collectives CollectiveTotals
	// Starved counts input-pipeline starvation events (consumer blocked on
	// an empty pipeline) summed over replicas.
	Starved int64
}

// ImgsPerSec is the step's throughput in images per second.
func (r StepRecord) ImgsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.GlobalBatch) / r.Wall.Seconds()
}

// OverlapEfficiency is the fraction of gradient-reduction busy time hidden
// inside the backward pass: 1 − tail/busy, clamped to [0, 1]. A step with no
// reduction work reports 1 (nothing needed hiding).
func (r StepRecord) OverlapEfficiency() float64 {
	return overlapEfficiency(r.Phases[PhaseReduce], r.Phases[PhaseReduceTail])
}

func overlapEfficiency(busy, tail time.Duration) float64 {
	if busy <= 0 {
		return 1
	}
	if tail >= busy {
		return 0
	}
	return 1 - float64(tail)/float64(busy)
}

// EvalRecord is one evaluation pass.
type EvalRecord struct {
	Step     int
	Epoch    float64
	Accuracy float64
	// Wall is this evaluation's own wall-clock cost.
	Wall time.Duration
	// SerialSamples is the evaluation samples processed serially by the
	// busiest worker — the §3.3 bottleneck measure.
	SerialSamples int
}

// SnapshotRecord is one training-state snapshot write (usually asynchronous;
// Wall is the write's own latency off the critical path).
type SnapshotRecord struct {
	Step int64
	Path string
	Wall time.Duration
	// Err is the write failure, "" on success.
	Err string
}

// EpochRecord summarizes one completed epoch — the cadence of the live
// console view.
type EpochRecord struct {
	// Epoch is the 1-based completed epoch.
	Epoch int
	// Steps is the number of steps recorded in this epoch window.
	Steps int
	// Wall is the summed step wall time of the window.
	Wall time.Duration
	// Phases sums the window's critical-path phase durations.
	Phases [NumPhases]time.Duration
	// ImgsPerSec is the window's training throughput.
	ImgsPerSec float64
	// AvgLoss is the window's mean training loss.
	AvgLoss float64
	// OverlapEfficiency aggregates the window's reduce overlap.
	OverlapEfficiency float64
	// Done is the fraction of the configured run completed, in [0, 1]
	// (0 when the recorder has no run geometry).
	Done float64
	// ETA extrapolates the remaining wall time from the run's mean step
	// wall so far (0 when the recorder has no run geometry).
	ETA time.Duration
}

// RunInfo gives the Recorder the run geometry epoch aggregation and ETA
// need. All fields are optional; a zero RunInfo degrades to per-step records
// only. BeginRun resets the wall-time window, so a resumed run's ETA
// extrapolates only from its own steps.
type RunInfo struct {
	World         int
	GlobalBatch   int
	StepsPerEpoch int
	// TotalSteps is the configured run length in steps (for ETA/Done).
	TotalSteps int
}

// Summary aggregates everything recorded since the last BeginRun (or since
// construction) — the value a finished run reports as Result.Telemetry.
// BeginRun starts a fresh summary, so multi-Run sessions report each run's
// own numbers.
type Summary struct {
	// Steps counts training steps recorded.
	Steps int
	// Wall sums step wall time (training only; evaluation is separate).
	Wall time.Duration
	// Images counts training images consumed.
	Images int64
	// Phases sums the per-step critical-path phase durations.
	Phases [NumPhases]time.Duration
	// Collectives accounts every collective call observed.
	Collectives CollectiveTotals
	// Starved counts input-pipeline starvation events.
	Starved int64
	// Evals / EvalWall / EvalSerialSamples aggregate evaluation passes.
	Evals             int
	EvalWall          time.Duration
	EvalSerialSamples int
	// Snapshots / SnapshotWall / SnapshotErrors aggregate snapshot writes.
	Snapshots      int
	SnapshotWall   time.Duration
	SnapshotErrors int
}

// ImgsPerSec is the run's mean training throughput.
func (s Summary) ImgsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Images) / s.Wall.Seconds()
}

// OverlapEfficiency is the run-wide fraction of gradient-reduction busy time
// hidden inside the backward pass.
func (s Summary) OverlapEfficiency() float64 {
	return overlapEfficiency(s.Phases[PhaseReduce], s.Phases[PhaseReduceTail])
}

// PhasePct is phase p's share of the summed step wall time, in percent.
// PhaseReduce mostly runs concurrently with PhaseBackward, so the phase
// percentages need not sum to 100.
func (s Summary) PhasePct(p Phase) float64 {
	if s.Wall <= 0 {
		return 0
	}
	return 100 * float64(s.Phases[p]) / float64(s.Wall)
}

// Recorder is the engine-facing half of the telemetry subsystem: the
// training engine hands it per-step samples, instrumented collectives report
// per-call events (Recorder implements comm.Observer), and the recorder
// aggregates both into step/epoch records fanned out to the attached sinks
// — in registration order — plus a lifetime Summary.
//
// With no sinks attached the recorder still aggregates the Summary; that
// path allocates nothing per step. Collective events are attributed to the
// step in flight when they are observed; the few scalar collectives an
// evaluation runs between steps fold into the following step's totals, and
// events still pending when Summary is read (the final evaluation's) fold
// into the summary directly.
type Recorder struct {
	sinks []Sink

	// Per-step collective accounting, written by instrumented collectives
	// from every rank's goroutines; swapped out at each StepDone.
	collCount  atomic.Int64
	collBytes  atomic.Int64
	collBusyNS atomic.Int64

	mu   sync.Mutex
	info RunInfo
	sum  Summary
	// Epoch window accumulators.
	epochSteps   int
	epochWall    time.Duration
	epochImages  int64
	epochLossSum float64
	epochPhases  [NumPhases]time.Duration
	// Run window (since BeginRun) for ETA extrapolation.
	runSteps int
	runWall  time.Duration
}

// NewRecorder builds a recorder fanning out to sinks (none is valid: the
// recorder then only aggregates the Summary).
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks}
}

// BeginRun (re)arms the epoch/ETA geometry and starts a fresh Summary, so
// each Run of a multi-Run session reports its own numbers. Call it at the
// top of each run; a recorder used without BeginRun still produces step
// records and the Summary, but no epoch records.
func (r *Recorder) BeginRun(info RunInfo) {
	r.mu.Lock()
	// Stale collective events from before this run (already folded into the
	// previous Summary read, or orphaned) must not pollute the first step.
	r.takeCollectives()
	r.info = info
	r.sum = Summary{}
	r.runSteps = 0
	r.runWall = 0
	r.resetEpochWindowLocked()
	r.mu.Unlock()
}

func (r *Recorder) resetEpochWindowLocked() {
	r.epochSteps = 0
	r.epochWall = 0
	r.epochImages = 0
	r.epochLossSum = 0
	r.epochPhases = [NumPhases]time.Duration{}
}

// Collective implements comm.Observer: instrumented endpoints report every
// collective call here. Lock-free — three atomic adds on the hot path.
func (r *Recorder) Collective(ev comm.Event) {
	r.collCount.Add(1)
	r.collBytes.Add(int64(ev.Bytes))
	r.collBusyNS.Add(int64(ev.Elapsed))
}

// takeCollectives swaps out the per-step collective accumulators.
func (r *Recorder) takeCollectives() CollectiveTotals {
	return CollectiveTotals{
		Count: r.collCount.Swap(0),
		Bytes: r.collBytes.Swap(0),
		Busy:  time.Duration(r.collBusyNS.Swap(0)),
	}
}

// StepDone records one completed global step. rec.Collectives is filled in
// by the recorder from the events observed since the previous StepDone; the
// caller supplies everything else. Emits the step record (and, at epoch
// boundaries, an epoch record) to every sink in registration order.
func (r *Recorder) StepDone(rec StepRecord) {
	rec.Collectives = r.takeCollectives()

	r.mu.Lock()
	r.sum.Steps++
	r.sum.Wall += rec.Wall
	r.sum.Images += int64(rec.GlobalBatch)
	for p := Phase(0); p < NumPhases; p++ {
		r.sum.Phases[p] += rec.Phases[p]
	}
	r.sum.Collectives.add(rec.Collectives)
	r.sum.Starved += rec.Starved

	r.epochSteps++
	r.epochWall += rec.Wall
	r.epochImages += int64(rec.GlobalBatch)
	r.epochLossSum += rec.Loss
	for p := Phase(0); p < NumPhases; p++ {
		r.epochPhases[p] += rec.Phases[p]
	}
	r.runSteps++
	r.runWall += rec.Wall

	var epochRec EpochRecord
	emitEpoch := false
	if spe := r.info.StepsPerEpoch; spe > 0 && rec.Step%spe == 0 {
		emitEpoch = true
		epochRec = EpochRecord{
			Epoch:             rec.Step / spe,
			Steps:             r.epochSteps,
			Wall:              r.epochWall,
			Phases:            r.epochPhases,
			OverlapEfficiency: overlapEfficiency(r.epochPhases[PhaseReduce], r.epochPhases[PhaseReduceTail]),
		}
		if r.epochWall > 0 {
			epochRec.ImgsPerSec = float64(r.epochImages) / r.epochWall.Seconds()
		}
		if r.epochSteps > 0 {
			epochRec.AvgLoss = r.epochLossSum / float64(r.epochSteps)
		}
		if total := r.info.TotalSteps; total > 0 && r.runSteps > 0 {
			epochRec.Done = float64(rec.Step) / float64(total)
			remaining := total - rec.Step
			if remaining > 0 {
				epochRec.ETA = time.Duration(float64(r.runWall) / float64(r.runSteps) * float64(remaining))
			}
		}
		r.resetEpochWindowLocked()
	}
	r.mu.Unlock()

	for _, s := range r.sinks {
		s.Step(rec)
	}
	if emitEpoch {
		for _, s := range r.sinks {
			s.Epoch(epochRec)
		}
	}
}

// EvalDone records one evaluation pass.
func (r *Recorder) EvalDone(rec EvalRecord) {
	r.mu.Lock()
	r.sum.Evals++
	r.sum.EvalWall += rec.Wall
	r.sum.EvalSerialSamples += rec.SerialSamples
	r.mu.Unlock()
	for _, s := range r.sinks {
		s.Eval(rec)
	}
}

// SnapshotDone records one training-state snapshot write outcome.
func (r *Recorder) SnapshotDone(rec SnapshotRecord) {
	r.mu.Lock()
	r.sum.Snapshots++
	r.sum.SnapshotWall += rec.Wall
	if rec.Err != "" {
		r.sum.SnapshotErrors++
	}
	r.mu.Unlock()
	for _, s := range r.sinks {
		s.Snapshot(rec)
	}
}

// Summary returns a copy of the aggregation since the last BeginRun. It
// first folds in any collective events still pending attribution (the final
// evaluation's reductions run after the last StepDone), so "every
// collective observed" holds for the returned value.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sum.Collectives.add(r.takeCollectives())
	return r.sum
}

// Close closes every sink in registration order, returning the first error.
func (r *Recorder) Close() error {
	var first error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
