// Package efficientnet builds the EfficientNet model family (Tan & Le 2019)
// on top of the nn layer library: MBConv blocks with squeeze-excitation,
// compound scaling of width/depth/resolution, and the B0–B7 configurations
// the paper trains (B2 and B5 in its evaluation). Scaled-down variants
// (Pico/Nano/Micro) make real CPU training feasible for the mini-scale
// validation experiments.
//
// Seams: ConfigByName resolves a family name into a Config (the dataset's
// resolution wins over the family default, so models are
// resolution-agnostic); Model exposes Params for the optimizers and
// BatchNorms for distributed-BN wiring. Model state serializes through
// checkpoint.ModelState.
// Freeze lowers a Model to an immutable Plan, the one inference path:
// replica evaluation freezes once per evaluation (after any EMA swap) and
// internal/serve once per model generation. The plan rounds (under bf16) and
// packs every convolution's weights into the GEMM's A panels and every dense
// layer's into B panels once, reduces each batch norm to its running-statistics
// scalars once, and drops dropout and drop-connect. Plan.Infer runs the fixed
// step list in a per-goroutine Workspace, whose activation buffers are laid
// out by liveness over the step order (interval allocation: a buffer whose
// last reader has run hands its memory on), grown to the largest batch seen,
// and never cleared, since every step overwrites what it defines. Its logits
// match Forward with Training=false bit for bit (TestPlanMatchesEvalForward);
// it writes only its workspace — never the caller's input, never a block's
// residual input, never model state (TestInferLeavesInputUntouched).
// Plan.Release and Workspace.Release hand their storage to the next Freeze or
// NewWorkspace, so a warm freeze repacks into memory it already owns.
// Model.Infer lowers and runs once for callers that hold no plan, reading the
// fp32 weights in place, as the per-call kernels always did.
//
// Paper: §2 describes the EfficientNet workload whose scaling limits the
// paper explores; Table 1/2 train B2 and B5.
package efficientnet
