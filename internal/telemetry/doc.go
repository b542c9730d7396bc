// Package telemetry is the measurement layer over the training hot path: a
// low-overhead structured event stream that turns the repo's performance
// mechanisms — bucketed overlapped gradient reduction, input prefetching,
// async snapshots — from claims into per-step numbers.
//
// The engine times each step's phases (data wait, forward, backward, the
// gradient-reduce overlap window and its exposed tail, optimizer apply)
// into per-replica StepSamples; instrumented collectives
// (comm.Instrument/InstrumentProvider) report every call's algorithm,
// payload and rank wall time; the input pipeline counts starvation; the
// checkpoint writer reports write latencies. A Recorder aggregates all of
// it per step and per epoch — throughput (img/s), comm-overlap efficiency
// (the fraction of collective busy time hidden inside the backward pass),
// ETA —
// and fans records out to pluggable Sinks (JSONL file, CSV file, live
// console summary) plus a run-lifetime Summary.
//
// Cost discipline: a nil *Recorder (replica.Config.Telemetry) compiles the
// instrumentation out — StepSample methods are nil-receiver-safe and read
// no clocks — and a Recorder with no sinks attached aggregates the Summary
// with zero allocations per step (TestNoSinkFastPathAllocs,
// BenchmarkStep/nosink: <1% overhead vs telemetry off).
//
// The package also closes the loop on the α-β cost model that motivates
// comm.Auto's algorithm choice: ValidateCommModel times the executable
// ring/tree/torus2d collectives, fits the model's two constants to the
// measured ring points, and reports measured-vs-modeled error per
// algorithm, world size and payload (`podbench -validate`). The executable
// collectives meet at a barrier twice per call rather than hopping 2(n−1)
// times, and at large payloads the errors grow with world size — every rank
// reads its peers' buffers through one host's memory bandwidth where the
// model assumes dedicated links — which is exactly the kind of structural
// divergence the validation exists to surface.
//
// Seams: Sink (Step/Eval/Epoch/Snapshot/Close; SinkFuncs adapts functions),
// comm.Observer (Recorder implements it), train.WithTelemetry /
// Result.Telemetry on the public API.
//
// Paper: the wall-clock decomposition behind Table 1 (compute vs all-reduce
// share) and Figure 1 (time to accuracy), measured on the mini-scale engine
// instead of modelled.
package telemetry
