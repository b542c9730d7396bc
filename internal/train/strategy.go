package train

import "effnetscale/internal/replica"

// EvalStrategy scores the model during training. The two §3.3 loop
// structures the paper contrasts ship as Distributed and Estimator; new
// strategies (async eval, sampled eval, EMA-weights eval) are additive —
// implement the interface and pass it to WithEvalStrategy.
type EvalStrategy interface {
	// Name identifies the strategy in logs and tables.
	Name() string
	// Evaluate scores the model. samplesPerReplica caps the per-replica
	// evaluation work (0 = full shard); serial is the sample count the
	// busiest single worker processed — the deterministic measure of the
	// §3.3 evaluation bottleneck. A non-nil error (an engine poisoned by a
	// failed state restore, say) aborts the run.
	Evaluate(e *replica.Engine, samplesPerReplica int) (acc float64, serial int, err error)
}

// Distributed shards evaluation across all replicas — the Kumar et al.
// train+eval loop the paper adopts (§3.3). Each worker scores
// samplesPerReplica images of its validation shard and the correct/total
// counts are all-reduced.
type Distributed struct{}

// Name implements EvalStrategy.
func (Distributed) Name() string { return "distributed" }

// Evaluate implements EvalStrategy.
func (Distributed) Evaluate(e *replica.Engine, samplesPerReplica int) (float64, int, error) {
	serial := e.Replica(0).ValLen()
	if samplesPerReplica > 0 && samplesPerReplica < serial {
		serial = samplesPerReplica
	}
	acc, err := e.Evaluate(samplesPerReplica)
	return acc, serial, err
}

// Estimator evaluates the validation split on replica 0 only while every
// other replica idles, modelling TPUEstimator's separate evaluation-worker
// bottleneck (§3.3). It targets the same total sample count as Distributed —
// samplesPerReplica × world — but processes it serially on one worker, with
// the same model Distributed would score (EMA weights, training precision).
type Estimator struct{}

// Name implements EvalStrategy.
func (Estimator) Name() string { return "estimator" }

// Evaluate implements EvalStrategy.
func (Estimator) Evaluate(e *replica.Engine, samplesPerReplica int) (float64, int, error) {
	return e.EvaluateSerial(samplesPerReplica * e.World())
}
