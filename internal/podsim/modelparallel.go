package podsim

import (
	"fmt"

	"effnetscale/internal/comm"
	"effnetscale/internal/topology"
	"effnetscale/internal/xla"
)

// The paper's §5 names model parallelism as future work: "model parallelism
// ... would supplement the current data parallelism to allow training on
// large numbers of chips without standard global batch sizes." This file
// implements that study analytically: a hybrid (D data shards × M model
// shards) decomposition where each model-shard group splits every layer's
// channels M ways, trading extra activation communication for an M× smaller
// minimum global batch.

// HybridStep extends StepBreakdown with the model-parallel exchange term.
type HybridStep struct {
	StepBreakdown
	// ModelShards is M in the D×M decomposition (1 = pure data parallel).
	ModelShards int
	// DataShards is D = cores / M.
	DataShards int
	// ActExchangeSeconds is the per-step activation (forward) + activation-
	// gradient (backward) exchange within each model-shard group.
	ActExchangeSeconds float64
}

// StepSeconds includes the activation-exchange term.
func (h HybridStep) StepSeconds() float64 {
	return h.StepBreakdown.StepSeconds() + h.ActExchangeSeconds
}

// ThroughputImgPerMs recomputes throughput with the exchange term included.
func (h HybridStep) ThroughputImgPerMs() float64 {
	return float64(h.GlobalBatch) / h.StepSeconds() / 1000
}

// HybridModelStep models one training step of a D×M hybrid decomposition on
// a slice. globalBatch is split across the D data shards only; each data
// shard's work is further split M ways across its model-shard group.
func HybridModelStep(model string, cores, globalBatch, modelShards int) (HybridStep, error) {
	if modelShards < 1 {
		return HybridStep{}, fmt.Errorf("podsim: model shards %d must be >= 1", modelShards)
	}
	if cores%modelShards != 0 {
		return HybridStep{}, fmt.Errorf("podsim: model shards %d do not divide %d cores", modelShards, cores)
	}
	perf, err := PerfFor(model)
	if err != nil {
		return HybridStep{}, err
	}
	slice, err := topology.SliceForCores(cores)
	if err != nil {
		return HybridStep{}, err
	}
	dataShards := cores / modelShards
	perData, err := xla.SplitBatch(globalBatch, dataShards)
	if err != nil {
		return HybridStep{}, err
	}
	// Each core executes the padded per-data-shard batch over 1/M of the
	// channels. Channel splitting fragments the matrix units, modelled as a
	// mild efficiency loss per halving.
	padded := xla.PadBatch(perData)
	shardEff := shardEfficiency(modelShards)
	h := HybridStep{
		StepBreakdown: StepBreakdown{
			Model:        model,
			Cores:        cores,
			GlobalBatch:  globalBatch,
			PerCoreBatch: perData, // per data shard; each core sees all of it
		},
		ModelShards: modelShards,
		DataShards:  dataShards,
	}
	h.ComputeSeconds = float64(padded) * perf.Stats.TrainFLOPsPerImg() /
		float64(modelShards) / (PeakMACsPerCore * perf.Util * shardEff)

	// Gradient all-reduce: each core holds 1/M of the parameters, reduced
	// across the D data shards.
	gradBytes := perf.Stats.GradBytes / modelShards
	h.AllReduceSeconds = comm.Torus2DAllReduceSeconds(gradBytes, slice, comm.TPUv3Links)

	// Activation exchange within the model-shard group: forward activations
	// and backward activation gradients at every layer boundary, each core
	// contributing its 1/M channel slice (ring all-gather per boundary,
	// aggregated here as one payload).
	if modelShards > 1 {
		actBytes := int(float64(padded) * perf.Stats.ActElemsPerImg * 2 / float64(modelShards) * 2)
		h.ActExchangeSeconds = comm.RingAllReduceSeconds(actBytes, modelShards, comm.TPUv3Links)
	}
	return h, nil
}

// shardEfficiency is the matrix-unit efficiency retained after splitting
// every layer's channels M ways: a mild loss per halving.
func shardEfficiency(modelShards int) float64 {
	eff := 1.0
	for m := modelShards; m > 1; m >>= 1 {
		eff *= 0.92
	}
	return eff
}

// MiniCollective is one collective call of a measured mini-scale step — the
// payload trace MiniHybridStep prices. All-gathers (the model-axis
// activation and gradient-slice gathers) are charged to the exchange term;
// the data-axis weight refresh (an in-place all-gather) and everything else
// to the all-reduce term.
type MiniCollective struct {
	Op    comm.Op
	Bytes int
	World int
}

// MiniHybridStep prices one mini-scale D×M training step the way
// HybridModelStep prices a pod step, calibrated to a measured run instead of
// TPU datasheet constants: compute is the per-data-shard batch times a
// measured per-image cost, scaled by 1/M with HybridModelStep's
// channel-sharding efficiency loss, and communication prices the step's
// actual collective payload trace with the α-β ring formulas under the
// fitted link constants (the PR 5 measured-vs-modeled fit). The result is
// the §5 analytic structure predicting a step the executable mesh engine
// actually runs — podbench -validate reports the per-cell error.
func MiniHybridStep(model string, d, m, globalBatch int, perImgSeconds float64, calls []MiniCollective, links comm.LinkParams) (HybridStep, error) {
	if d < 1 || m < 1 {
		return HybridStep{}, fmt.Errorf("podsim: mesh %dx%d must have both axes >= 1", d, m)
	}
	if globalBatch%d != 0 {
		return HybridStep{}, fmt.Errorf("podsim: global batch %d does not split across %d data shards", globalBatch, d)
	}
	h := HybridStep{
		StepBreakdown: StepBreakdown{
			Model:        model,
			Cores:        d * m,
			GlobalBatch:  globalBatch,
			PerCoreBatch: globalBatch / d,
		},
		ModelShards: m,
		DataShards:  d,
	}
	h.ComputeSeconds = float64(globalBatch/d) * perImgSeconds / (float64(m) * shardEfficiency(m))
	for _, c := range calls {
		if c.World < 2 {
			continue
		}
		switch c.Op {
		case comm.OpAllGather:
			h.ActExchangeSeconds += comm.RingAllGatherSeconds(c.Bytes, c.World, links)
		case comm.OpAllGatherInPlace:
			h.AllReduceSeconds += comm.RingAllGatherSeconds(c.Bytes, c.World, links)
		default:
			h.AllReduceSeconds += comm.RingAllReduceSeconds(c.Bytes, c.World, links)
		}
	}
	return h, nil
}

// MinGlobalBatch returns the smallest padding-free global batch for a D×M
// decomposition on the given cores — the §5 motivation: M model shards cut
// the XLA-imposed minimum by M.
func MinGlobalBatch(cores, modelShards int) int {
	return xla.MinEfficientGlobalBatch(cores) / modelShards
}

// HybridSweepRow is one configuration of the future-work study.
type HybridSweepRow struct {
	ModelShards        int
	DataShards         int
	GlobalBatch        int
	ThroughputImgPerMs float64
	ActExchangePct     float64
}

// HybridSweep evaluates M ∈ {1,2,4,8} on a full 2048-core pod at each M's
// minimum padding-free batch, quantifying the §5 trade-off: smaller feasible
// batches versus activation-exchange overhead.
func HybridSweep(model string, cores int) ([]HybridSweepRow, error) {
	var rows []HybridSweepRow
	for _, m := range []int{1, 2, 4, 8} {
		batch := MinGlobalBatch(cores, m)
		h, err := HybridModelStep(model, cores, batch, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HybridSweepRow{
			ModelShards:        m,
			DataShards:         h.DataShards,
			GlobalBatch:        batch,
			ThroughputImgPerMs: h.ThroughputImgPerMs(),
			ActExchangePct:     100 * h.ActExchangeSeconds / h.StepSeconds(),
		})
	}
	return rows, nil
}
