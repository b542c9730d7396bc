// Package nn provides the neural-network layer library used to build
// EfficientNets: convolutions, batch normalization with pluggable
// cross-replica statistics reduction (paper §3.4), squeeze-excitation,
// dense layers, activations and regularizers, plus a parameter registry
// consumed by the optimizers.
//
// Seams: Param is the registry entry optimizers and checkpoints traverse;
// Ctx carries per-forward mode (training/eval), the bf16 precision policy
// and the dropout RNG stream; StatsReducer is the distributed-BN seam — a
// BatchNorm whose Reducer is set all-reduces its per-channel statistics
// across its BN group, and CollectiveStats adapts any comm.Collective into
// that seam.
//
// The inference split: every Layer has both Forward (autograd tape, the
// training path) and Infer (plain tensors, no tape — batch norm reads its
// running statistics, dropout and drop-connect are identity). The two paths
// share the same weights and the same math — activations and batch norm's
// apply passes run the same tensor element-wise kernels on both — asserted
// bit-for-bit against Forward-with-Training=false by the parity tests; Infer
// exists so evaluation and serving pay no tape allocations. New layers must
// implement both methods or the compiler rejects them.
//
// Paper: §3.4 — distributed batch normalization over replica groups, the
// accuracy-critical ingredient for very large global batches.
package nn
