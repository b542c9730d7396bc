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
// Layers have one forward, on the autograd tape. Inference does not call
// them: efficientnet.Freeze lowers a model's layers into a plan of packed
// weights and per-channel scalars, and Forward with Training=false (batch
// norm on its running statistics, dropout and drop-connect identity) is the
// reference that plan is held to bit for bit. BatchNorm.RunningInvStd is the
// one definition of the running-statistics scale both use; the per-layer
// parity tests (infer_test.go) hold each layer's frozen form to its eval
// forward through the same tensor kernels the plan calls.
//
// Paper: §3.4 — distributed batch normalization over replica groups, the
// accuracy-critical ingredient for very large global batches.
package nn
