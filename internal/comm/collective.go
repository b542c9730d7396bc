package comm

// The Collective interface is the package's public seam: every consumer of
// collective communication — gradient reduction in the replica engine,
// batch-norm statistics in nn, metrics, the benchmark harness — programs
// against it, and the concrete algorithm (ring, recursive-doubling tree,
// hierarchical 2-D torus, or an automatic per-call choice) is injected via a
// Provider. This is what lets the paper's §3.4 topology-aware algorithm
// selection — bandwidth-optimal rings and hierarchical torus reductions for
// large gradient payloads, latency-bound trees for small BN statistics —
// become a configuration choice instead of a hardcoded call.

import (
	"fmt"

	"effnetscale/internal/topology"
)

// Collective is one rank's endpoint of a communication world. All methods
// are synchronous SPMD collectives: every rank of the world must enter the
// same call (in the same order) from its own goroutine — the lockstep
// semantics of TPU collectives. Ranks of one world that enter different
// calls or lengths all panic with a message naming both calls; a rank that
// never enters leaves the others waiting. A rank makes one call at a time
// on an endpoint.
type Collective interface {
	// Rank returns this endpoint's rank in [0, WorldSize).
	Rank() int
	// WorldSize returns the number of ranks.
	WorldSize() int
	// AllReduce sums buf element-wise across all ranks, in place; on return
	// every rank holds the identical total.
	AllReduce(buf []float32)
	// AllReduceF64 is AllReduce over float64 buffers (batch-norm statistics
	// and metrics accumulate in double precision).
	AllReduceF64(buf []float64)
	// AllGather concatenates every rank's local slice into out, ordered by
	// rank. len(out) must equal WorldSize() × len(local).
	AllGather(local, out []float32)
	// AllGatherInPlace copies every rank j's span buf[bounds[j]:bounds[j+1]]
	// into the same span of every rank's buf. Every rank passes a buffer of
	// the same length and the same bounds: WorldSize()+1 ascending offsets
	// within buf. Anything else panics on every rank.
	AllGatherInPlace(buf []float32, bounds []int)
	// ReduceScatter sums buf across ranks and returns the chunk this rank
	// owns of the reduced result (chunk (rank+1) mod n per chunkBounds).
	// buf is left in an unspecified partially-reduced state.
	ReduceScatter(buf []float32) []float32
	// Broadcast copies root's buf to every rank. A root outside
	// [0, WorldSize) panics on every rank.
	Broadcast(buf []float32, root int)
	// Barrier blocks until every rank has entered it.
	Barrier()
	// Algorithm names the algorithm this endpoint runs, including any
	// fallback in effect (e.g. "tree(ring-fallback,n=6)") — the observable
	// answer to "which collective actually ran?".
	Algorithm() string
}

// --- Ring --------------------------------------------------------------------

// Ring is the bandwidth-optimal ring collective: reduce-scatter followed by
// all-gather, 2(n−1)/n · |buf| bytes per link. The right choice for large
// gradient payloads on a 1-D ring.
type Ring struct {
	p *peer
}

// Rank implements Collective.
func (r *Ring) Rank() int { return r.p.rank }

// WorldSize implements Collective.
func (r *Ring) WorldSize() int { return r.p.w.n }

// AllReduce implements Collective.
func (r *Ring) AllReduce(buf []float32) { ringAllReduce(r.p, buf) }

// AllReduceF64 implements Collective.
func (r *Ring) AllReduceF64(buf []float64) { ringAllReduce(r.p, buf) }

// AllGather implements Collective.
func (r *Ring) AllGather(local, out []float32) { allGather(r.p, local, out) }

// AllGatherInPlace implements Collective.
func (r *Ring) AllGatherInPlace(buf []float32, bounds []int) { allGatherInPlace(r.p, buf, bounds) }

// ReduceScatter implements Collective.
func (r *Ring) ReduceScatter(buf []float32) []float32 { return reduceScatter(r.p, buf) }

// Broadcast implements Collective.
func (r *Ring) Broadcast(buf []float32, root int) { broadcast(r.p, buf, root) }

// Barrier implements Collective.
func (r *Ring) Barrier() { r.p.barrier() }

// Algorithm implements Collective.
func (r *Ring) Algorithm() string { return "ring" }

// --- Tree --------------------------------------------------------------------

// Tree specializes all-reduce to recursive halving/doubling: log2(n) rounds
// each moving the full payload, beating the ring when the payload is small
// and latency dominates (BN statistics, metrics). Non-power-of-two worlds
// fall back to the ring for all-reduce — the fallback is visible in
// Algorithm(), not silent. The embedded Ring supplies every other
// collective on the same transport.
type Tree struct {
	Ring
}

// AllReduce implements Collective.
func (t *Tree) AllReduce(buf []float32) { treeAllReduce(t.p, buf) }

// AllReduceF64 implements Collective.
func (t *Tree) AllReduceF64(buf []float64) { treeAllReduce(t.p, buf) }

// Algorithm implements Collective. On non-power-of-two worlds, where the
// recursive-doubling exchange has no partner for every rank, it reports the
// ring fallback the all-reduce actually runs.
func (t *Tree) Algorithm() string {
	n := t.p.w.n
	if n&(n-1) != 0 {
		return fmt.Sprintf("tree(ring-fallback,n=%d)", n)
	}
	return "tree"
}

// --- Torus2D -----------------------------------------------------------------

// Torus2D is the executable form of the hierarchical 2-D torus all-reduce
// from Ying et al. that Torus2DAllReduceSeconds has modelled analytically all
// along: a reduce-scatter ring along each row (full payload), an all-reduce
// ring along each column on the row-owned 1/cols share, then an all-gather
// ring along each row. Ranks are laid out row-major on the grid. Large
// payloads cross each link only ~2(1/cols + 1/(cols·rows)) times per element
// instead of circling one long ring — the reason pods run it.
//
// Every other collective uses a flat ring over all ranks; the hierarchical
// decomposition is an all-reduce algorithm. Rows and columns are worlds of
// their own, so an all-reduce checks for mismatched calls per row and per
// column: ranks whose row matched can be left waiting in the column phase.
type Torus2D struct {
	rank, n int
	grid    topology.Slice
	row     *peer // ring over this rank's row (size grid.Cols)
	col     *peer // ring over this rank's column (size grid.Rows)
	flat    *peer // flat ring over all ranks for non-hierarchical ops
}

// Rank implements Collective.
func (t *Torus2D) Rank() int { return t.rank }

// WorldSize implements Collective.
func (t *Torus2D) WorldSize() int { return t.n }

// Grid returns the rank grid the hierarchy runs on.
func (t *Torus2D) Grid() topology.Slice { return t.grid }

// AllReduce implements Collective with the row-then-column hierarchy.
func (t *Torus2D) AllReduce(buf []float32) { torusAllReduce(t, buf) }

// AllReduceF64 implements Collective.
func (t *Torus2D) AllReduceF64(buf []float64) { torusAllReduce(t, buf) }

func torusAllReduce[T float](t *Torus2D, buf []T) {
	if t.n == 1 {
		return
	}
	if t.grid.Rows == 1 || t.grid.Cols == 1 {
		// Degenerate grid: one ring covers everything.
		ringAllReduce(t.flat, buf)
		return
	}
	// Phase 1: reduce-scatter along the row; this rank folds the row-sum of
	// chunk (col+1) mod cols into its row scratch.
	own := foldChunk(t.row, reduceOp[T](), buf)
	// Phase 2: all-reduce the owned share along the column. Every rank of a
	// column owns the same chunk index, so the share is fully reduced across
	// the whole world after this phase.
	ringAllReduce(t.col, own)
	// Phase 3: all-gather along the row to rebuild the full buffer.
	gatherChunks(t.row, buf)
}

// AllGather implements Collective.
func (t *Torus2D) AllGather(local, out []float32) { allGather(t.flat, local, out) }

// AllGatherInPlace implements Collective.
func (t *Torus2D) AllGatherInPlace(buf []float32, bounds []int) {
	allGatherInPlace(t.flat, buf, bounds)
}

// ReduceScatter implements Collective.
func (t *Torus2D) ReduceScatter(buf []float32) []float32 { return reduceScatter(t.flat, buf) }

// Broadcast implements Collective.
func (t *Torus2D) Broadcast(buf []float32, root int) { broadcast(t.flat, buf, root) }

// Barrier implements Collective.
func (t *Torus2D) Barrier() { t.flat.barrier() }

// Algorithm implements Collective.
func (t *Torus2D) Algorithm() string {
	return fmt.Sprintf("torus2d(%dx%d)", t.grid.Rows, t.grid.Cols)
}

// --- Auto --------------------------------------------------------------------

// Auto picks the cheapest algorithm per call from the payload size and world
// via the α-β cost model (cost.go) — the package's analytic half steering its
// functional half. Large gradient payloads route to the hierarchical torus,
// small latency-bound payloads (BN statistics, scalar metrics) to the tree.
// The choice is a pure function of (bytes, world, grid), so every rank picks
// the same algorithm and lockstep is preserved.
type Auto struct {
	ring  *Ring
	tree  *Tree
	torus *Torus2D
	lp    LinkParams
}

// Rank implements Collective.
func (a *Auto) Rank() int { return a.ring.Rank() }

// WorldSize implements Collective.
func (a *Auto) WorldSize() int { return a.ring.WorldSize() }

// pick returns the sub-collective the cost model selects for a payload.
func (a *Auto) pick(bytes int) Collective {
	switch name, _ := autoChoose(bytes, a.WorldSize(), a.torus.grid, a.lp); name {
	case "tree":
		return a.tree
	case a.torus.Algorithm():
		return a.torus
	default:
		return a.ring
	}
}

// ChooseFor reports which algorithm an all-reduce of the given payload size
// (in bytes) would run — Auto's per-call decision, made observable.
func (a *Auto) ChooseFor(bytes int) string {
	name, _ := autoChoose(bytes, a.WorldSize(), a.torus.grid, a.lp)
	return name
}

// AllReduce implements Collective.
func (a *Auto) AllReduce(buf []float32) { a.pick(4 * len(buf)).AllReduce(buf) }

// AllReduceF64 implements Collective.
func (a *Auto) AllReduceF64(buf []float64) { a.pick(8 * len(buf)).AllReduceF64(buf) }

// AllGather implements Collective.
func (a *Auto) AllGather(local, out []float32) { a.ring.AllGather(local, out) }

// AllGatherInPlace implements Collective.
func (a *Auto) AllGatherInPlace(buf []float32, bounds []int) { a.ring.AllGatherInPlace(buf, bounds) }

// ReduceScatter implements Collective.
func (a *Auto) ReduceScatter(buf []float32) []float32 { return a.ring.ReduceScatter(buf) }

// Broadcast implements Collective.
func (a *Auto) Broadcast(buf []float32, root int) { a.ring.Broadcast(buf, root) }

// Barrier implements Collective.
func (a *Auto) Barrier() { a.ring.Barrier() }

// Algorithm implements Collective.
func (a *Auto) Algorithm() string {
	return fmt.Sprintf("auto[ring|%s|%s]", a.tree.Algorithm(), a.torus.Algorithm())
}

// autoChoose prices an all-reduce of bytes across n ranks under each
// candidate algorithm and returns the cheapest (name, seconds). The tree is
// only a candidate on power-of-two worlds (elsewhere it would silently run
// the ring anyway); the torus only when the grid is genuinely 2-D. Ties go
// to the ring.
func autoChoose(bytes, n int, grid topology.Slice, lp LinkParams) (string, float64) {
	name, best := "ring", RingAllReduceSeconds(bytes, n, lp)
	if n&(n-1) == 0 {
		if t := TreeAllReduceSeconds(bytes, n, lp); t < best {
			name, best = "tree", t
		}
	}
	if grid.Rows > 1 && grid.Cols > 1 {
		if t := Torus2DAllReduceSeconds(bytes, grid, lp); t < best {
			name, best = fmt.Sprintf("torus2d(%dx%d)", grid.Rows, grid.Cols), t
		}
	}
	return name, best
}

// --- Provider ----------------------------------------------------------------

// A Provider names a collective algorithm and wires it for any world size.
// It carries both halves of the package: Connect builds the executable
// per-rank endpoints, ModelAllReduce prices the identical algorithm under
// the α-β cost model — so the algorithm the simulator charges for and the
// algorithm the mini-scale training actually runs can no longer drift apart.
//
// The zero Provider is invalid (IsZero reports it); consumers substitute
// their own default.
type Provider struct {
	name    string
	slice   topology.Slice
	connect func(n int, slice topology.Slice) ([]Collective, error)
	model   func(bytes, n int, slice topology.Slice, lp LinkParams) (float64, string)
}

// IsZero reports whether p is the zero Provider (no algorithm selected).
func (p Provider) IsZero() bool { return p.connect == nil }

// Name returns the provider's algorithm family name.
func (p Provider) Name() string { return p.name }

// Connect builds one communication world of n ranks and returns the per-rank
// endpoints, index = rank.
func (p Provider) Connect(n int) ([]Collective, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("comm: zero Provider (use RingProvider, TreeProvider, Torus2DProvider or AutoProvider)")
	}
	if n < 1 {
		return nil, fmt.Errorf("comm: world size %d must be >= 1", n)
	}
	return p.connect(n, p.slice)
}

// ModelAllReduce prices an all-reduce of the payload across n ranks under
// the α-β cost model — the analytic twin of the algorithm Connect wires.
// It returns the modelled seconds and the concrete algorithm charged (Auto
// resolves its per-call choice). Like Connect, it refuses the zero Provider
// (panic — pricing nothing is a programming error, not a runtime state).
func (p Provider) ModelAllReduce(bytes, n int, lp LinkParams) (float64, string) {
	if p.IsZero() {
		panic("comm: ModelAllReduce on zero Provider (use RingProvider, TreeProvider, Torus2DProvider or AutoProvider)")
	}
	return p.model(bytes, n, p.slice, lp)
}

// ModelAllReduceSeconds is ModelAllReduce without the algorithm name.
func (p Provider) ModelAllReduceSeconds(bytes, n int, lp LinkParams) float64 {
	s, _ := p.ModelAllReduce(bytes, n, lp)
	return s
}

// RingProvider builds ring collectives.
func RingProvider() Provider {
	return Provider{
		name: "ring",
		connect: func(n int, _ topology.Slice) ([]Collective, error) {
			w := newWorld(n)
			out := make([]Collective, n)
			for r := 0; r < n; r++ {
				out[r] = &Ring{p: w.peer(r)}
			}
			return out, nil
		},
		model: func(bytes, n int, _ topology.Slice, lp LinkParams) (float64, string) {
			return RingAllReduceSeconds(bytes, n, lp), "ring"
		},
	}
}

// TreeProvider builds recursive-doubling tree collectives (ring fallback on
// non-power-of-two worlds, reported by Algorithm()).
func TreeProvider() Provider {
	return Provider{
		name: "tree",
		connect: func(n int, _ topology.Slice) ([]Collective, error) {
			w := newWorld(n)
			out := make([]Collective, n)
			for r := 0; r < n; r++ {
				out[r] = &Tree{Ring{p: w.peer(r)}}
			}
			return out, nil
		},
		model: func(bytes, n int, _ topology.Slice, lp LinkParams) (float64, string) {
			if n&(n-1) != 0 {
				return RingAllReduceSeconds(bytes, n, lp), fmt.Sprintf("tree(ring-fallback,n=%d)", n)
			}
			return TreeAllReduceSeconds(bytes, n, lp), "tree"
		},
	}
}

// Torus2DProvider builds hierarchical 2-D torus collectives on the given
// slice. Worlds whose size matches the slice (Rows×Cols ranks, or its
// Cores() under the topology package's row-major core-grid layout) use its
// geometry; any other world size — BN groups, odd test worlds — gets a
// near-square factorization so the provider works everywhere.
func Torus2DProvider(slice topology.Slice) Provider {
	return Provider{
		name:  "torus2d",
		slice: slice,
		connect: func(n int, slice topology.Slice) ([]Collective, error) {
			return connectTorus2D(n, gridFor(n, slice))
		},
		model: func(bytes, n int, slice topology.Slice, lp LinkParams) (float64, string) {
			grid := gridFor(n, slice)
			return Torus2DAllReduceSeconds(bytes, grid, lp), fmt.Sprintf("torus2d(%dx%d)", grid.Rows, grid.Cols)
		},
	}
}

// AutoProvider builds collectives that pick ring, tree or 2-D torus per call
// from the payload size via the α-β cost model, on the given slice's
// geometry (same slice resolution rules as Torus2DProvider).
func AutoProvider(slice topology.Slice) Provider {
	return Provider{
		name:  "auto",
		slice: slice,
		connect: func(n int, slice topology.Slice) ([]Collective, error) {
			tori, err := connectTorus2D(n, gridFor(n, slice))
			if err != nil {
				return nil, err
			}
			out := make([]Collective, n)
			for r := 0; r < n; r++ {
				// Ring and tree run on the torus's flat world: a rank makes
				// one call at a time, and a per-call choice that differs
				// across ranks (different lengths) then fails the mismatch
				// check instead of waiting in two worlds.
				torus := tori[r].(*Torus2D)
				out[r] = &Auto{
					ring:  &Ring{p: torus.flat},
					tree:  &Tree{Ring{p: torus.flat}},
					torus: torus,
					lp:    TPUv3Links,
				}
			}
			return out, nil
		},
		model: func(bytes, n int, slice topology.Slice, lp LinkParams) (float64, string) {
			name, s := autoChoose(bytes, n, gridFor(n, slice), lp)
			return s, name
		},
	}
}

// ProviderByName resolves a command-line algorithm name. The slice
// parameterizes the torus-based providers and is ignored by ring and tree.
func ProviderByName(name string, slice topology.Slice) (Provider, error) {
	switch name {
	case "ring":
		return RingProvider(), nil
	case "tree":
		return TreeProvider(), nil
	case "torus2d":
		return Torus2DProvider(slice), nil
	case "auto":
		return AutoProvider(slice), nil
	default:
		return Provider{}, fmt.Errorf("comm: unknown collective %q (want ring, tree, torus2d, auto)", name)
	}
}

// gridFor resolves the rank grid a world of n ranks runs on. A slice that
// matches n exactly — Rows×Cols ranks (one rank per chip, the pod
// simulator's view) or Cores() ranks (one rank per core, laid out row-major
// as in topology.BNGroups) — keeps its geometry; anything else gets the most
// square factorization of n.
func gridFor(n int, slice topology.Slice) topology.Slice {
	if slice.Rows >= 1 && slice.Cols >= 1 {
		if slice.Rows*slice.Cols == n {
			return slice
		}
		if slice.Cores() == n {
			return topology.Slice{Rows: slice.Rows, Cols: slice.Cols * topology.CoresPerChip}
		}
	}
	rows := 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return topology.Slice{Rows: rows, Cols: n / rows}
}

// connectTorus2D wires the row, column and flat worlds of a rows×cols grid.
func connectTorus2D(n int, grid topology.Slice) ([]Collective, error) {
	rows, cols := grid.Rows, grid.Cols
	if rows*cols != n {
		return nil, fmt.Errorf("comm: torus grid %dx%d does not cover world %d", rows, cols, n)
	}
	rowWorlds := make([]*world, rows)
	for r := range rowWorlds {
		rowWorlds[r] = newWorld(cols)
	}
	colWorlds := make([]*world, cols)
	for c := range colWorlds {
		colWorlds[c] = newWorld(rows)
	}
	flat := newWorld(n)
	out := make([]Collective, n)
	for rank := 0; rank < n; rank++ {
		r, c := rank/cols, rank%cols
		out[rank] = &Torus2D{
			rank: rank,
			n:    n,
			grid: grid,
			row:  rowWorlds[r].peer(c),
			col:  colWorlds[c].peer(r),
			flat: flat.peer(rank),
		}
	}
	return out, nil
}
