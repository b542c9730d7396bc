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
// Model.Infer is the tape-free forward (the nn inference split end to end:
// running-stats BN, no dropout/drop-connect, no autograd allocations) —
// the path evaluation strategies score on and internal/serve batches over;
// it matches Forward with Training=false bit for bit
// (TestModelInferMatchesEvalForward). Infer allocates one tensor per
// convolution and applies batch norm, Swish, the SE gate and the residual
// add to it in place; it may overwrite only those tensors of its own —
// never the caller's input, never a block's residual input, never model
// state (TestInferLeavesInputUntouched) — which is what keeps it safe for
// concurrent use over shared request and evaluation batches.
//
// Paper: §2 describes the EfficientNet workload whose scaling limits the
// paper explores; Table 1/2 train B2 and B5.
package efficientnet
