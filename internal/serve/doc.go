// Package serve is the inference side of the train-to-serve loop: it turns a
// trained checkpoint into a request-serving model with dynamic batching —
// the serving dual of the paper's large-batch training insight. Throughput
// on this hardware comes from amortizing per-forward fixed costs (and, on
// multi-core hosts, engaging the batch-parallel convolution kernels) over
// coalesced batches, so the server gathers concurrent Predict calls into one
// pass of a frozen efficientnet.Plan. The workers share one plan per model
// generation — a generation's first batch runs Model.Infer, which packs
// nothing, and its second freezes the model, so weights are rounded and
// packed once per load, not once per batch — and each runs it in a
// Workspace of its own.
//
// The seams:
//
//   - Batcher coalesces concurrent requests into batches without a timer.
//     Each worker blocks for a batch's first request, then takes whatever
//     else is already queued, up to Config.MaxBatch; if that leaves the batch
//     short it yields once and takes what arrived meanwhile. An idle server
//     answers a lone request at once, and a busy worker's backlog becomes
//     its next batch, so batches grow with load by themselves. A bounded
//     queue sheds load (ErrOverloaded) instead of letting latency grow
//     without bound, and the forwards run over pooled input tensors
//     (data.BufferPool — allocation-free in steady state).
//
//   - ModelProvider abstracts where weights come from. Static pins one
//     model; Loader boots from the "model" component of one snapshot file
//     or of a directory's newest readable snapshot, and watches the
//     directory, hot-swapping freshly loaded weights via an atomic pointer.
//     In-flight batches finish on the model they started with; only
//     subsequent batches see the swap. A snapshot whose model family, class
//     count or resolution differs from the booted model's is reported and
//     never swapped in.
//
//   - Sink is the serve-side telemetry seam, mirroring package telemetry's
//     style: every completed batch emits a BatchRecord (coalesced size,
//     queue depth, inference wall time, per-request latencies) to the
//     configured sinks. Stats aggregates them into the batch-size histogram
//     and p50/p95/p99 latency percentiles behind /stats; JSONL streams
//     kind-tagged records ("serve_batch") compatible with the training
//     telemetry schema.
//
// cmd/effnetserve exposes the package over HTTP (/predict, /healthz,
// /stats). The serve_rates workload of the repository benchmark (bench/) is
// the load generator.
package serve
