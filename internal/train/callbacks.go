package train

import (
	"fmt"

	"effnetscale/internal/replica"
)

// Callback observes a running Session. All methods run synchronously on the
// training goroutine, in callback registration order. Compose behavior by
// registering several small callbacks rather than one monolith; Funcs
// adapts plain functions so only the events of interest need implementing.
type Callback interface {
	// OnStep fires after every global training step (1-based).
	OnStep(s *Session, step int, res replica.StepResult)
	// OnEval fires after every evaluation.
	OnEval(s *Session, pt EvalPoint)
	// OnCheckpoint fires after every checkpoint save attempt; err is nil on
	// success.
	OnCheckpoint(s *Session, path string, err error)
	// OnEnd fires once, after the loop finishes and the Result is complete.
	OnEnd(s *Session, res *Result)
}

// Funcs adapts functions into a Callback; nil fields are skipped.
type Funcs struct {
	Step       func(s *Session, step int, res replica.StepResult)
	Eval       func(s *Session, pt EvalPoint)
	Checkpoint func(s *Session, path string, err error)
	End        func(s *Session, res *Result)
}

// OnStep implements Callback.
func (f Funcs) OnStep(s *Session, step int, res replica.StepResult) {
	if f.Step != nil {
		f.Step(s, step, res)
	}
}

// OnEval implements Callback.
func (f Funcs) OnEval(s *Session, pt EvalPoint) {
	if f.Eval != nil {
		f.Eval(s, pt)
	}
}

// OnCheckpoint implements Callback.
func (f Funcs) OnCheckpoint(s *Session, path string, err error) {
	if f.Checkpoint != nil {
		f.Checkpoint(s, path, err)
	}
}

// OnEnd implements Callback.
func (f Funcs) OnEnd(s *Session, res *Result) {
	if f.End != nil {
		f.End(s, res)
	}
}

// Progress emits one human-readable line per evaluation (and one per failed
// checkpoint save) through emit — the classic training log.
func Progress(emit func(string)) Callback {
	return Funcs{
		Eval: func(_ *Session, pt EvalPoint) {
			emit(fmt.Sprintf("step %5d epoch %6.2f  top-1 %.4f  (%s)",
				pt.Step, pt.Epoch, pt.Accuracy, pt.Elapsed.Round(1e6)))
		},
		Checkpoint: func(_ *Session, path string, err error) {
			if err != nil {
				emit("checkpoint save failed: " + err.Error())
			}
		},
	}
}

// BestCheckpoint saves replica 0's model to path (Session.SaveCheckpoint)
// after every evaluation that improves on the best accuracy seen so far.
// Failures are reported through Session.NotifyCheckpoint — they reach
// Result.CheckpointErrors and every callback's OnCheckpoint — but never
// abort training.
func BestCheckpoint(path string) Callback {
	best := 0.0
	return Funcs{
		Eval: func(s *Session, pt EvalPoint) {
			if s.restoredBest > best {
				// A resumed session already saved a checkpoint at the
				// snapshot's recorded best; a post-resume eval must beat
				// that, or the resumed run would overwrite best.ckpt with
				// a worse model the uninterrupted run would have kept.
				best = s.restoredBest
			}
			if pt.Accuracy <= best {
				return
			}
			best = pt.Accuracy
			s.NotifyCheckpoint(path, s.SaveCheckpoint(path))
		},
	}
}

// StopAfterStep ends the run once the global step counter reaches n — the
// deterministic "kill at step k" used by resume tests and preemption drills
// (global numbering, so a resumed run is not re-stopped at a step it already
// passed).
func StopAfterStep(n int) Callback {
	return Funcs{
		Step: func(s *Session, step int, _ replica.StepResult) {
			if step >= n {
				s.Stop()
			}
		},
	}
}

// StopAtAccuracy ends the run early once evaluation accuracy reaches target
// (0 disables), marking Result.ReachedGoal.
func StopAtAccuracy(target float64) Callback {
	return Funcs{
		Eval: func(s *Session, pt EvalPoint) {
			if target > 0 && pt.Accuracy >= target {
				s.markGoal()
				s.Stop()
			}
		},
	}
}

// TrailingAccuracy tracks the mean training-batch accuracy over the last n
// global steps — the "final train accuracy" the sweep tables report.
type TrailingAccuracy struct {
	Funcs
	n    int
	vals []float64
}

// NewTrailingAccuracy returns a TrailingAccuracy over a window of n steps.
func NewTrailingAccuracy(n int) *TrailingAccuracy {
	if n < 1 {
		n = 1
	}
	return &TrailingAccuracy{n: n}
}

// OnStep implements Callback.
func (t *TrailingAccuracy) OnStep(_ *Session, _ int, res replica.StepResult) {
	t.vals = append(t.vals, res.Accuracy)
	if len(t.vals) > t.n {
		t.vals = t.vals[1:]
	}
}

// Mean returns the windowed mean (0 before any step has run).
func (t *TrailingAccuracy) Mean() float64 {
	if len(t.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range t.vals {
		sum += v
	}
	return sum / float64(len(t.vals))
}
