// Package comm implements the collective-communication layer in two forms:
//
//  1. Functional collectives — real ring, tree and hierarchical 2-D torus
//     algorithms over goroutine "replicas", all behind the Collective
//     interface (see collective.go). The mini-scale distributed training
//     runs actually move gradient and batch-norm statistics through these,
//     so the algorithms are exercised, not just modelled.
//
//  2. An analytic α-β cost model for the same collectives on a TPU-v3
//     slice's 2-D (torus) interconnect (see cost.go), used by the pod
//     simulator to produce Table 1's "% of time spent on All-Reduce" column
//     and by the Auto collective to pick an algorithm per call.
//
// Seams: the Collective interface (Rank, WorldSize, AllReduce, AllReduceF64,
// AllGather, AllGatherInPlace, Algorithm) is what every consumer programs
// against; Provider values (RingProvider,
// TreeProvider, Torus2DProvider, AutoProvider, ProviderByName) both wire the
// executable endpoints (Connect) and price the identical algorithm under the
// cost model (ModelAllReduce), so the algorithm the simulator charges and
// the algorithm training runs cannot drift apart. Observer + Instrument /
// InstrumentProvider add per-call accounting (operation, algorithm, payload
// bytes, rank wall time) without touching the algorithms — the telemetry
// subsystem's view into every collective, and the capture side of
// `podbench -validate`'s measured-vs-modeled comparison.
//
// Transport: the ranks of a world share one slot each (comm.go). A call
// publishes its op, length and buffer in its slot, waits at the world's
// barrier, reads its peers' slots directly, and waits again — two waits per
// call where a ring of channels would take 2(n−1) hops. Every algorithm keeps
// the ring's or tree's addition order, so results are bit-identical to the
// hop-by-hop form: the ring's owner of chunk c folds x_c + x_{c+1} + … +
// x_{c+n−1}; a tree round adds own + partner. After the first wait every rank
// compares all slots, so ranks that enter different collectives or lengths
// all panic with one message naming both calls instead of hanging. A world
// carries one collective at a time per rank.
//
// Paper: §3.4 (topology-aware all-reduce on the 2-D torus, following Ying
// et al.) and Table 1's communication-share column.
package comm
