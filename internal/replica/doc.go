// Package replica implements the data-parallel training engine at the heart
// of the reproduction: N replicas (goroutines standing in for TPU cores)
// each hold a full copy of the model and a shard of every global batch, run
// forward/backward locally, all-reduce gradients through a pluggable
// comm.Collective (ring by default; tree, hierarchical 2-D torus or
// cost-model-automatic via Config.Collective), and apply identical
// optimizer updates so the replicas never diverge — the same SPMD structure
// the paper's TPU training uses.
//
// Gradient reduction is bucketed and overlapped with the backward pass
// itself: every parameter's gradient is bound into the flattened reduction
// buffer (autograd.Value.BindGrad), the tape's grad-ready hooks report each
// parameter the moment its last gradient contribution lands, and a bucket
// whose members are all ready is handed to the background collective stream
// while backward is still running — only the stem's bucket, ready when
// backward ends, is structurally exposed (the executable cousin of podsim's
// grad-ready overlap model; Config.NoBackwardOverlap serializes dispatch as
// a bit-for-bit identical A/B baseline).
//
// Distributed batch normalization (§3.4) is wired in by giving every
// BatchNorm layer a reducer that all-reduces its per-channel statistics
// across the replica's BN group — through the same Collective interface the
// gradients use.
//
// Seams: Config assembles a run (collective provider, bucket size, prefetch
// depth, BN grouping, precision, optimizer); Engine.Step/Evaluate/
// EvaluateSerial are what train.Session's loop drives; CaptureState/
// RestoreState compose full checkpoint snapshots; Config.Telemetry attaches
// the telemetry recorder, which times every step's phases (data wait,
// forward, backward, the gradient-reduce overlap window and its exposed
// tail, optimizer apply) and instruments every collective — nil keeps the
// hot path free of clock reads entirely.
//
// Paper: §3.1 (large-batch data parallelism, gradient accumulation), §3.3
// (the distributed train+eval loop), §3.4 (distributed BN, topology-aware
// all-reduce).
package replica
