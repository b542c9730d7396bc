// Package tensor implements the dense float32 tensor engine that underpins
// the whole training stack: shapes, element-wise kernels, a blocked
// parallel matrix multiply, im2col convolutions (normal and depthwise) with
// their backward passes, pooling and reductions.
//
// Layout is row-major. Convolutional tensors use NCHW (batch, channel,
// height, width), matching the layout discussion in the paper's §2.
//
// # Kernel architecture
//
// The matrix multiply is cache-blocked in the GotoBLAS style (see
// matmul.go): k is cut into gemmKC-deep slabs, B is packed once per slab
// into 16-wide k-major column panels, and each gemmMC-row block of A is
// packed into 4-high k-major row panels consumed by a register-tiled 4×16
// micro-kernel. On amd64 machines with AVX2+FMA (detected at startup via
// CPUID, gemm_amd64.go) the micro-kernel is hand-written assembly; edge
// tiles run narrower 4×8/4×4 assembly kernels against the same packed
// panels, and other architectures fall back to a portable Go kernel.
// Every output element accumulates in ascending-k order regardless of its
// tile position, so results are independent of batch raggedness: batch-1
// and batch-N runs produce bitwise-equal values.
//
// Convolutions lower onto that GEMM through im2col at batch width: one GEMM
// per layer call (per group of samples, convFoldCols columns at most), not
// one per sample. gemmBatch takes the weights as the shared A operand and the
// samples' column matrices as (base, stride, count), folds the batch into the
// column dimension, packs the weight panels once per (k-slab, row block) for
// the whole group and packs the columns into shared 16-wide panels that cross
// sample boundaries — so a 1×1 or 2×2 feature map fills micro-tiles instead
// of zero-padding one per sample. A tile that spans samples is computed on
// the stack and added back column by column; an element is still one
// ascending-k chain through the same micro-kernels, so the fold does not
// move a bit (TestBatchedConvMatchesPerSample holds it to the per-sample
// loop). Forward and the input gradient go through gemmBatch; the weight
// gradient stays one accumulating GEMM per sample, in sample order, because
// folding its k dimension would change the summation order. Unit-stride
// pointwise 1×1 convs skip the lowering (the activation is the column
// matrix); im2col and col2im move each (tap, output row) as one clipped run —
// zero margins, a copy or strided walk between them — with no per-element
// bounds test.
//
// The depthwise kernels (depthwise.go) clip the tap window against the input
// once per output row and once per column, then accumulate over the clipped
// window with no per-tap test; in the backward, outputs whose window spans
// the full kernel width go as one run per row through unrolled 3- and 5-wide
// tap rows. Taps are visited i then j ascending and every
// gradient element receives its contributions in row-major output order, so
// forward, dx and dw are bit-identical to the naive checked quadruple loop
// (TestDepthwiseClippedMatchesNaive, FuzzDepthwiseClipped). With AVX2 the
// forward puts eight channels of a sample, not eight outputs, in a register
// (depthwise_amd64.go), since pico's small planes leave few interior runs:
// per lane the same VMULPS-then-VADDPS taps in the same order, over weights
// lane-packed by PackDepthwise; the Go loop is the twin elsewhere. The two
// give the same bits, except that any NaN may stand for a NaN: which NaN
// payload comes out is fixed only for the assembly (the first operand's,
// input before weight, accumulator before product), since Go code's depends
// on the operand order the compiler picks.
//
// # Element-wise kernels
//
// Swish, sigmoid and the three batch-norm apply passes (training normalize,
// running-statistics inference, backward dx) are *Into functions over flat
// []float32 rows (elementwise.go): allocation-free, serial, callable from
// any goroutine. EfficientNet puts one of them behind nearly every
// convolution, so they get the GEMM's treatment: AVX2 assembly, eight lanes
// per iteration (elementwise_amd64.s), gated on AVX2 + OS YMM state
// (useAVX2; no FMA needed), with a portable Go twin.
//
// The sigmoid is σ(x) = 1/(1+e^t), t = −x, with a float32 exp: clamp t to
// [−87.33654475, 88.3762626647949]; k = roundeven(t·log2e), taken by adding
// and subtracting 1.5·2^23; r = t − k·0.693359375 − k·(−2.12194440e−4)
// (Cody–Waite, the first product is exact); e^r by Cephes expf's degree-5
// polynomial, evaluated as (p(r)·r² + r) + 1; scaled by 2^k assembled in the
// exponent field ((k+127)<<23); one division. Against a float64 reference σ
// and x·σ stay within 3 ULP for x ≥ −87.33 (TestSigmoidSwishOracle; the
// measured maxima are 2.4 and 2.7); below that σ is a denormal (x·σ inherits
// its fixed 2^−149 spacing), and below −88.376 it saturates at the clamp's
// floor, 1/(1+e^88.376) ≈ 4.2e−39, instead of continuing towards 0.
//
// One algorithm, two spellings, identical bits. The assembly uses only
// VMULPS / VADDPS / VSUBPS / VDIVPS — never an FMA — and the Go twin performs
// the same IEEE float32 operations in the same order with an explicit
// float32(...) around every product, so no compiler (arm64, GOAMD64=v3) may
// contract one. Consequences the rest of the repo leans on: the assembly
// takes the leading multiple of eight elements and the twin the ragged tail,
// with no seam; an element's result never depends on its index, so batch-1
// and batch-N inference agree bitwise; and amd64 and every other
// architecture compute the same activations. The mul/add/sub-only kernels
// (Swish backward, the batch-norm passes) reproduce the scalar loops they
// replaced bit for bit; only exp changed numerics (σ used to be the float64
// value rounded once). FuzzElementwiseKernels holds the two spellings
// together over fuzzed lengths, alignments and value classes.
//
// Non-finite inputs stay non-finite:
//
//	x      σ(x)                        x·σ(x)
//	NaN    NaN (the input, blended     NaN
//	       back: VMINPS/VMAXPS would
//	       have replaced it)
//	+Inf   1                           +Inf
//	−Inf   ≈ 4.2e−39 (clamp floor)     −Inf
//
// Which payload a NaN result carries is not pinned (it depends on operand
// order, which differs between compilers and architectures); that a lane is
// NaN is.
//
// # Frozen operands
//
// Inference runs the same GEMMs on the same weights call after call, so a
// frozen model (efficientnet.Plan) packs each weight once: PackConv lays a
// convolution's [Cout, Cin·KH·KW] matrix out as the A panels of every k-slab
// and row block, PackDense a dense layer's [In, Out] weights as the B panels
// of every k-slab, each exactly where gemmBatch would have packed them per
// call, and Conv2DPackedInto and MatMulPackedInto read them in place. The
// products and their order are unchanged, so the bits are
// (TestPackedOperandsMatchPerCallPacking). Tensor.Rebind re-points a header
// at workspace memory without clearing it, for buffers the next kernel
// overwrites in full.
//
// # Scratch pools
//
// Kernel temporaries — im2col column matrices (sized to the group of samples
// one GEMM folds), packing panels, per-worker weight-gradient partials —
// come from a Scratch of size-classed buffer pools rather than make, so the
// Into variants (Conv2DInto, Conv2DBackwardInto, MatMulInto, ...) allocate
// nothing in steady state (proved by BenchmarkConv's allocs/op). Passing a
// nil *Scratch uses a process-wide pool; the replica engine owns one pool
// per engine and threads it through nn.Ctx.Scratch.
//
// # The step arena
//
// The tensors a training step keeps past one kernel call — op outputs,
// backward temporaries, activation gradients — come from an Arena: a bump
// allocator whose New hands out zeroed tensors (data, header and shape) from
// slabs it owns, and whose Reset takes them all back at once. The first step
// sizes it: a step that outgrows the slab chains chunks, and Reset merges them
// into one slab, so every later step allocates by pointer bumps over memory
// the step before warmed. Hand-outs are zeroed as New zeroes, so a kernel
// computes the same bits in either; a nil *Arena is the heap. The replica
// engine owns one arena per replica, hands it to the graph through the batch
// leaf (autograd.LeafIn) and resets it when a micro-batch's loss, accuracy
// and input recycling are done. Under go test, Reset first fills the released
// data with NaN, so a tensor read after its step has ended poisons a loss
// that a bit-for-bit test then catches.
//
// # Correctness and performance harness
//
// oracle_test.go checks every kernel path (FMA and portable, forced via
// forceFMA) against float64 reference implementations with a
// k-proportional ULP tolerance, including zero-times-NaN propagation —
// the kernels deliberately contain no sparsity skips, since 0·NaN must
// stay NaN. fuzz_test.go extends the oracles over fuzzed shapes and pins
// the im2col/col2im adjoint identity; batched_test.go holds the batched
// GEMM and the clipped-window depthwise kernels (both dispatches, raw and
// lane-packed weights, 1–24 channels, and in the fuzz target −0, ±Inf, NaN
// and denormals, the AVX2 forward's NaN payloads pinned by an x86-rule
// reference and any NaN allowed for the Go loops) bit for bit to
// the per-sample and per-tap-checked loops they replaced; seed corpora live
// under testdata. Performance is gated by cmd/benchdiff comparing
// BenchmarkStep / BenchmarkMatMul / BenchmarkConv / BenchmarkElementwise
// against the committed BENCH_BASELINE.json in CI.
//
// Seams: Tensor is the storage type everything above shares; kernels
// parallelize through package parallel so host-CPU parallelism policy stays
// in one place. The compute timed by the telemetry subsystem's forward/
// backward phases is ultimately these kernels.
package tensor
