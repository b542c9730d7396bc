// Package optim implements the optimizers the paper trains with: RMSProp
// (the original EfficientNet optimizer, used for batch ≤ 16384) and LARS
// (used to reach batch 65536, §3.1), plus SM3 (the paper's future-work
// optimizer, §5), LAMB, Adam and SGD as baselines.
//
// All optimizers mutate nn.Param weights in place given the gradients
// accumulated by autograd, and are stateful across steps (momentum buffers
// and second-moment accumulators keyed per parameter). Every update is
// per parameter, so a caller may step any subset: the replica engine gives
// each rank only the parameters it owns, and a warm Step allocates nothing.
// A snapshot captured over a subset holds that subset's slots, so captures
// over disjoint subsets merge into the capture over their union. Step
// counters (Adam, LAMB) advance once per Step call, whatever the subset.
//
// Seams: Optimizer is the interface the replica engine drives (Step +
// checkpoint.StateCodec, so every optimizer's slots snapshot and restore
// bit-for-bit); ByName resolves CLI names; WeightEMA maintains the
// exponential moving average of the weights the reference EfficientNet
// setup evaluates, with Swap exchanging live and shadow weights around
// evaluation.
//
// Paper: §3.1/§3.2 and the optimizer column of Table 2.
package optim
