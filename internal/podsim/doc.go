// Package podsim is the analytic TPU-v3 pod simulator that regenerates the
// paper's evaluation artifacts — Table 1 (throughput and all-reduce share),
// Table 2 (peak accuracies across optimizer/batch configurations) and
// Figure 1 (training time to peak accuracy versus slice size) — from a
// roofline step-time model plus a calibrated convergence model.
//
// Calibration contract: the compute-utilization
// constants are fit once against the 128-core rows of Table 1 and the
// interconnect constants come from comm.TPUv3Links; every other slice size
// is then a prediction of the model, so the scaling behaviour (near-linear
// throughput, small flat all-reduce share) is emergent rather than copied.
// Accuracy constants in the convergence model are calibrated to Table 2,
// and `podbench -artifact table2` prints them beside the published values.
//
// Seams: ModelStepWith prices a step under any comm.Provider — the same
// value that wires the executable mini-scale collectives — so modelled and
// measured algorithms stay one artifact; StepBreakdown decomposes the step
// the way the telemetry subsystem decomposes real steps, and
// `podbench -validate` closes the loop by fitting the cost model to
// measured collectives and reporting the per-cell error.
//
// Paper: the whole evaluation section (§4) plus the overlap and hybrid
// model-parallel analyses (§5).
package podsim
