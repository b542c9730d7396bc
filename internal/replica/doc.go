// Package replica implements the data-parallel training engine at the heart
// of the reproduction: N replicas (goroutines standing in for TPU cores)
// each hold a full copy of the model and a shard of every global batch, run
// forward/backward locally, and all-reduce gradients through a pluggable
// comm.Collective (ring by default; tree, hierarchical 2-D torus or
// cost-model-automatic via Config.Collective) — the same SPMD structure the
// paper's TPU training uses.
//
// The weight update is sharded across the data axis (owner.go): each rank
// owns a contiguous run of whole parameters, averages and updates only
// those, and one in-place all-gather per step copies every owner's weights
// into its peers' flat weight buffers (efficientnet.Model.BindWeights), so
// the replicas never diverge and each optimizer slot exists on one rank per
// data coordinate. The snapshot merges the owners' slots.
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
// Step memory comes from a per-replica tensor.Arena. The micro-batch enters
// the graph as an autograd.LeafIn over the replica's arena, so every op
// output, backward temporary and activation gradient of the micro-batch
// (the mesh plan's gathered activations and bf16 copies included) is a
// pointer bump into a slab the first step sized. The arena is reset, and the
// tape releases the graph, once the micro-batch's loss and predictions are
// counted and its batch is recycled; Close drops the arena. Weights, their gradients (bound into the
// reduction buffer), optimizer slots, EMA shadows and BN running statistics
// are heap memory, as is everything evaluation and Infer allocate. The
// statistics batch norm computes per call are held by the layer itself.
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
