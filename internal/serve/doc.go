// Package serve is the inference side of the train-to-serve loop: it turns a
// trained checkpoint into a request-serving model with dynamic batching —
// the serving dual of the paper's large-batch training insight. Throughput
// on this hardware comes from amortizing per-forward fixed costs (and, on
// multi-core hosts, engaging the batch-parallel convolution kernels) over
// coalesced batches, so the server gathers concurrent Predict calls into one
// tape-free Model.Infer pass.
//
// The seams:
//
//   - Batcher coalesces concurrent requests into batches, flushing on
//     whichever comes first: the batch reaching Config.MaxBatch, or
//     Config.MaxWait elapsing since the oldest queued request. A bounded
//     queue sheds load (ErrOverloaded) instead of letting latency grow
//     without bound, and a worker pool runs the forwards over pooled input
//     tensors (data.BufferPool — allocation-free in steady state).
//
//   - ModelProvider abstracts where weights come from. Static pins one
//     model; Loader boots from the "model" component of one snapshot file
//     or of a directory's newest readable snapshot, and watches the
//     directory, hot-swapping freshly loaded weights via an atomic pointer.
//     In-flight batches finish on the model they started with; only
//     subsequent batches see the swap.
//
//   - Sink is the serve-side telemetry seam, mirroring package telemetry's
//     style: every completed batch emits a BatchRecord (coalesced size,
//     queue depth, inference wall time, per-request latencies) to the
//     configured sinks. Stats aggregates them into the batch-size histogram
//     and p50/p95/p99 latency percentiles behind /stats and the load
//     generator's table; JSONL streams kind-tagged records ("serve_batch")
//     compatible with the training telemetry schema.
//
// cmd/effnetserve exposes the package over HTTP (/predict, /healthz,
// /stats) and as a load generator; examples/trainserve walks the full
// train → snapshot → serve → hot-reload loop.
package serve
