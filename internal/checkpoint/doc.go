// Package checkpoint is the one on-disk state format: a versioned Snapshot
// of named components, encoded deterministically (equal state, equal bytes).
// A full training snapshot carries everything a resumed run needs to
// continue bit-for-bit (model weights and BN statistics, optimizer slots,
// EMA shadow weights, loop position, per-replica RNG and data-pipeline
// cursors); a weights checkpoint for serving is the same file holding only
// the "model" component. An async Writer persists snapshots atomically
// (fsync + rename) off the training critical path.
//
// Seams: StateCodec (StateKey/CaptureState/RestoreState with presence,
// shape and identity validation) is how stateful subsystems participate —
// the model (ModelState), every optim.Optimizer, optim.WeightEMA and each
// replica's private state implement it. The replica engine composes their
// components into full snapshots (replica.Engine.CaptureState /
// RestoreState) and the train package surfaces the end-to-end story
// (train.WithSnapshotEvery, train.WithResume). Writer reports each write's
// outcome and latency as WriteEvents, which the telemetry subsystem
// aggregates into snapshot-write statistics.
//
// Paper: a pod-scale job outlives TPU preemption only if training state is
// durable; this package is the fault-tolerance layer under the paper's
// wall-clock claims (§3.3's loop structure decides *when* it runs — at
// quiescent step boundaries).
package checkpoint
