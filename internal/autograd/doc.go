// Package autograd implements tape-based reverse-mode automatic
// differentiation over the tensor engine. A forward pass builds a DAG of
// Values; Backward on a scalar loss walks the DAG in reverse topological
// order, accumulating gradients into every Value that requires them.
//
// Seams: Value is the differentiable handle every layer produces and
// consumes; NewOp registers custom operators, which keeps the op set open —
// batch normalization (with its cross-replica statistics reduction, §3.4 of
// the paper) lives in package nn but plugs into this tape. Gradients
// accumulate across tapes, which is what makes gradient accumulation
// (replica.Config.GradAccumSteps, the paper's path to batch 65536 in §3.1)
// a pure consumer-side composition.
//
// The grad-ready seam: a Tape owns the backward traversal. Leaves
// registered via Tape.Register fire the Tape.OnGradReady hook the moment
// their last gradient contribution of a pass lands — the sort refcounts
// each node's incoming edges and the reverse walk decrements them, so a
// parameter is provably final mid-backward, while the tape is still
// back-propagating through earlier layers. Registered leaves the graph
// never reaches fire after the walk, so every registered leaf fires exactly
// once per Backward. Value.BindGrad complements the hook: it pins a leaf's
// gradient to caller-owned storage (the engine's flattened reduction
// buffer), turning the first Accumulate into an in-place overwrite — no
// Clone, no per-step allocation, bit-for-bit the same result. Activation
// gradients get the same treatment through Value.AccumulateOwned: an op that
// built its input gradient in a tensor of its own (Swish, Sigmoid, the
// convolutions, batch norm, pooling, channel scaling) hands that tensor over
// instead of having it cloned, and must not touch it again; ops that forward
// the gradient they received keep Accumulate. The Tape also reuses its
// traversal buffers (order slice, DFS stack; visited marks are pass stamps on
// the nodes themselves) across steps.
//
// The step arena: a leaf built by LeafIn carries a tensor.Arena, and every op
// result inherits the arena of its first parent that has one (NewOp), so one
// LeafIn over the batch puts a whole forward and backward in the arena: op
// outputs, what ops keep for their backward (Swish's σ, batch norm's xhat,
// bf16 operand copies, softmax probabilities), backward temporaries, and each
// op result's first gradient, copied or adopted. Ops outside this package
// follow the same rule through Value.Arena, and so do the per-step inputs
// they build, such as dropout masks. A leaf's gradient is the exception:
// Accumulate and AccumulateOwned copy a leaf's first contribution onto the
// heap, because parameter gradients outlive the step. Everything
// else the graph holds is valid only until the arena's Reset, which the
// replica engine calls when a micro-batch's loss and accuracy are counted,
// together with Tape.Release so that the tape's buffers do not keep the dead
// graph reachable.
// With no LeafIn the arena is nil and every op allocates on the heap, as
// tests, evaluation and the benchmark probes do.
//
// Swish and Sigmoid — forward and Swish's backward — run tensor's
// element-wise kernels (tensor.SwishInto and friends), the same ones the
// tape-free inference path in package nn calls: one sigmoid in the repo, so
// tape and tape-free activations agree bit for bit by construction.
//
// Paper: the backward passes here produce the per-replica gradients whose
// all-reduce is the subject of the paper's communication analysis (§3.4,
// Table 1); the grad-ready hooks are what lets the replica engine overlap
// that all-reduce with the backward pass itself rather than serializing it
// after (ROADMAP item 1).
package autograd
