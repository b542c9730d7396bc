package comm

// Bitwise references for every collective. Each reference is a sequential
// loop that adds in the order the algorithm documents — the ring's owner of
// chunk c folds x_c + x_{c+1} + … + x_{c+n−1}, a tree round adds own +
// partner, the 2-D torus folds each row's chunk in ring order and then rings
// the row sums down the column — so any change of summation order, however
// small its effect, fails here, not only a wrong sum.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"effnetscale/internal/topology"
)

// foldFrom sums xs[start][lo:hi], xs[start+1][lo:hi], … (indices mod
// len(xs)) in that order.
func foldFrom[T float](xs [][]T, start, lo, hi int) []T {
	acc := append([]T(nil), xs[start][lo:hi]...)
	for k := 1; k < len(xs); k++ {
		for i, v := range xs[(start+k)%len(xs)][lo:hi] {
			acc[i] += v
		}
	}
	return acc
}

// refRing is the ring all-reduce: chunk c of the total is folded from rank c.
func refRing[T float](xs [][]T) []T {
	n, l := len(xs), len(xs[0])
	out := make([]T, l)
	for c := 0; c < n; c++ {
		lo, hi := chunkBounds(l, n, c)
		copy(out[lo:hi], foldFrom(xs, c, lo, hi))
	}
	return out
}

// refTree is recursive doubling: in round k every rank adds its partner's
// value at distance 2^k to its own. It returns each rank's result.
func refTree[T float](xs [][]T) [][]T {
	vals := xs
	for dist := 1; dist < len(xs); dist <<= 1 {
		next := make([][]T, len(xs))
		for r := range vals {
			next[r] = make([]T, len(vals[r]))
			for i := range next[r] {
				next[r][i] = vals[r][i] + vals[r^dist][i]
			}
		}
		vals = next
	}
	return vals
}

// refTorus is the row-then-column hierarchy on a rows×cols grid (ranks
// row-major): row chunk c is folded in ring order from row position c, and
// the rows' folds of chunk c are then ring-all-reduced down the column.
func refTorus[T float](xs [][]T, grid topology.Slice) []T {
	rows, cols := grid.Rows, grid.Cols
	if rows == 1 || cols == 1 {
		return refRing(xs)
	}
	l := len(xs[0])
	out := make([]T, l)
	for c := 0; c < cols; c++ {
		lo, hi := chunkBounds(l, cols, c)
		rowSums := make([][]T, rows)
		for r := range rowSums {
			rowSums[r] = foldFrom(xs[r*cols:(r+1)*cols], c, lo, hi)
		}
		copy(out[lo:hi], refRing(rowSums))
	}
	return out
}

// wantAllReduce returns each rank's expected all-reduce result for the
// algorithm c runs on this payload.
func wantAllReduce[T float](c Collective, xs [][]T) [][]T {
	n := len(xs)
	each := func(v []T) [][]T {
		out := make([][]T, n)
		for r := range out {
			out[r] = v
		}
		return out
	}
	if n == 1 {
		return each(append([]T(nil), xs[0]...))
	}
	pow2 := n&(n-1) == 0
	switch c := c.(type) {
	case *Auto:
		bytes := 4 * len(xs[0])
		if reduceOp[T]() == OpAllReduceF64 {
			bytes *= 2
		}
		switch alg := c.ChooseFor(bytes); {
		case alg == "tree":
			return refTree(xs)
		case strings.HasPrefix(alg, "torus2d"):
			return each(refTorus(xs, c.torus.grid))
		}
	case *Tree:
		if pow2 {
			return refTree(xs)
		}
	case *Torus2D:
		return each(refTorus(xs, c.grid))
	}
	return each(refRing(xs))
}

// sameBits compares bitwise, except that any NaN equals any NaN (payloads
// are not part of the contract).
func sameBits(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func widen[T float](v []T) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// genValue draws a value whose magnitude spans 2^±20, so float32 sums
// depend on their order; with special it also draws ±Inf and NaN.
func genValue(rng *rand.Rand, special bool) float64 {
	if special {
		switch rng.Intn(16) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.NaN()
		}
	}
	return rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
}

// refCheck is one collective call every rank makes, with its expected
// result per rank.
type refCheck struct {
	name string
	run  func(rank int, c Collective) []float64
	want [][]float64
	got  [][]float64
}

// randomBounds draws n+1 ascending offsets in [0, l]: spans that may be
// empty and need not cover the whole buffer.
func randomBounds(rng *rand.Rand, n, l int) []int {
	bounds := make([]int, n+1)
	for j := range bounds {
		bounds[j] = rng.Intn(l + 1)
	}
	slices.Sort(bounds)
	return bounds
}

// checkAgainstReference connects one n-rank world from prov and, for each
// payload length, runs all-reduce (float32 and float64), reduce-scatter,
// both all-gathers and a broadcast from each root on it, in sequence on the
// same world, comparing every rank's result bitwise with the references.
func checkAgainstReference(t *testing.T, prov Provider, n int, lengths, roots []int, rng *rand.Rand, special bool) {
	t.Helper()
	colls := connectOrFatal(t, prov, n)
	var checks []*refCheck
	add := func(name string, run func(int, Collective) []float64, want func(r int) []float64) {
		c := &refCheck{name: name, run: run, want: make([][]float64, n), got: make([][]float64, n)}
		for r := range c.want {
			c.want[r] = want(r)
		}
		checks = append(checks, c)
	}
	for _, l := range lengths {
		in32, in64 := make([][]float32, n), make([][]float64, n)
		for r := 0; r < n; r++ {
			in32[r], in64[r] = make([]float32, l), make([]float64, l)
			for i := 0; i < l; i++ {
				in32[r][i] = float32(genValue(rng, special))
				in64[r][i] = genValue(rng, special)
			}
		}
		ar32, ar64, ring := wantAllReduce(colls[0], in32), wantAllReduce(colls[0], in64), in32[0]
		if n > 1 {
			ring = refRing(in32)
		}
		add(fmt.Sprintf("AllReduce(%d)", l), func(r int, c Collective) []float64 {
			buf := append([]float32(nil), in32[r]...)
			c.AllReduce(buf)
			return widen(buf)
		}, func(r int) []float64 { return widen(ar32[r]) })
		add(fmt.Sprintf("AllReduceF64(%d)", l), func(r int, c Collective) []float64 {
			buf := append([]float64(nil), in64[r]...)
			c.AllReduceF64(buf)
			return buf
		}, func(r int) []float64 { return ar64[r] })
		add(fmt.Sprintf("ReduceScatter(%d)", l), func(r int, c Collective) []float64 {
			return widen(c.ReduceScatter(append([]float32(nil), in32[r]...)))
		}, func(r int) []float64 {
			lo, hi := chunkBounds(l, n, (r+1)%n)
			if n == 1 {
				lo, hi = 0, l
			}
			return widen(ring[lo:hi])
		})
		add(fmt.Sprintf("AllGather(%d)", l), func(r int, c Collective) []float64 {
			out := make([]float32, n*l)
			c.AllGather(in32[r], out)
			return widen(out)
		}, func(int) []float64 {
			var all []float32
			for _, x := range in32 {
				all = append(all, x...)
			}
			return widen(all)
		})
		bounds := randomBounds(rng, n, l)
		add(fmt.Sprintf("AllGatherInPlace(%d, bounds %v)", l, bounds), func(r int, c Collective) []float64 {
			buf := append([]float32(nil), in32[r]...)
			c.AllGatherInPlace(buf, bounds)
			return widen(buf)
		}, func(r int) []float64 {
			want := append([]float32(nil), in32[r]...)
			for j := 0; j < n; j++ {
				copy(want[bounds[j]:bounds[j+1]], in32[j][bounds[j]:bounds[j+1]])
			}
			return widen(want)
		})
		for _, root := range roots {
			add(fmt.Sprintf("Broadcast(%d, root %d)", l, root), func(r int, c Collective) []float64 {
				buf := append([]float32(nil), in32[r]...)
				c.Broadcast(buf, root)
				return widen(buf)
			}, func(int) []float64 { return widen(in32[root]) })
		}
	}
	runCollectives(colls, func(rank int, c Collective) {
		for _, ch := range checks {
			ch.got[rank] = ch.run(rank, c)
		}
	})
	for _, ch := range checks {
		for r := 0; r < n; r++ {
			got, want := ch.got[r], ch.want[r]
			if len(got) != len(want) {
				t.Fatalf("%s n=%d %s rank %d: length %d, want %d", prov.Name(), n, ch.name, r, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s n=%d %s rank %d elem %d: got %v (%#x), want %v (%#x)", prov.Name(), n, ch.name, r, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestCollectivesMatchReferenceOrder(t *testing.T) {
	for _, prov := range allProviders() {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
			roots := make([]int, n)
			for r := range roots {
				roots[r] = r
			}
			rng := rand.New(rand.NewSource(int64(n)))
			checkAgainstReference(t, prov, n, []int{0, 1, n - 1, n + 1, 1037}, roots, rng, false)
		}
	}
}

func FuzzCollectives(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint16(37), int64(1))
	f.Add(uint8(1), uint8(4), uint16(300), int64(2))
	f.Add(uint8(2), uint8(6), uint16(5), int64(3))
	f.Add(uint8(3), uint8(9), uint16(0), int64(4))
	f.Fuzz(func(t *testing.T, provIdx, nRaw uint8, lRaw uint16, seed int64) {
		provs := allProviders()
		prov := provs[int(provIdx)%len(provs)]
		n := int(nRaw)%9 + 1
		rng := rand.New(rand.NewSource(seed))
		checkAgainstReference(t, prov, n, []int{int(lRaw) % 301}, []int{rng.Intn(n)}, rng, true)
	})
}

// panicsOnEveryRank runs body on every rank and returns each rank's panic
// message ("" if it returned), failing the test if some rank neither
// returns nor panics within 5 s.
func panicsOnEveryRank(t *testing.T, colls []Collective, body func(rank int, c Collective)) []string {
	t.Helper()
	msgs := make([]string, len(colls))
	done := make(chan struct{})
	go func() {
		runCollectives(colls, func(rank int, c Collective) {
			defer func() {
				if p := recover(); p != nil {
					msgs[rank] = fmt.Sprint(p)
				}
			}()
			body(rank, c)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("some rank neither returned nor panicked within 5 s")
	}
	return msgs
}

func TestMismatchedCollectivesPanicOnEveryRank(t *testing.T) {
	// Rank 3 of 4 enters a different call from the others, who all enter
	// AllReduce of 64 floats. Auto picks the tree for both payloads, so its
	// ranks meet in one world. (A hierarchical Torus2D all-reduce checks
	// each row and column world separately: ranks of a row that matched
	// would wait in the column phase, so it is not in this table.)
	for _, prov := range []Provider{RingProvider(), TreeProvider(), AutoProvider(topology.Slice{})} {
		for _, tc := range []struct {
			name string
			odd  func(c Collective)
			want string
		}{
			{"op", func(c Collective) { c.AllReduceF64(make([]float64, 29)) },
				"comm: collective mismatch across ranks: rank 0 entered allreduce(64), rank 3 entered allreduce_f64(29)"},
			{"length", func(c Collective) { c.AllReduce(make([]float32, 29)) },
				"comm: buffer length mismatch across ranks: rank 0 entered allreduce(64), rank 3 entered allreduce(29)"},
			{"barrier", func(c Collective) { c.Barrier() },
				"comm: collective mismatch across ranks: rank 0 entered allreduce(64), rank 3 entered barrier(0)"},
			{"broadcast", func(c Collective) { c.Broadcast(make([]float32, 64), 0) },
				"comm: collective mismatch across ranks: rank 0 entered allreduce(64), rank 3 entered broadcast(64, root 0)"},
			{"allgather_inplace", func(c Collective) { c.AllGatherInPlace(make([]float32, 64), []int{0, 16, 32, 48, 64}) },
				"comm: collective mismatch across ranks: rank 0 entered allreduce(64), rank 3 entered allgather_inplace(64, bounds [0 16 32 48 64])"},
		} {
			colls := connectOrFatal(t, prov, 4)
			msgs := panicsOnEveryRank(t, colls, func(rank int, c Collective) {
				if rank == 3 {
					tc.odd(c)
					return
				}
				c.AllReduce(make([]float32, 64))
			})
			for r, msg := range msgs {
				if msg != tc.want {
					t.Errorf("%s %s: rank %d panicked with %q, want %q", prov.Name(), tc.name, r, msg, tc.want)
				}
			}
		}
	}
}

func TestAllGatherInPlaceBoundsMismatchPanics(t *testing.T) {
	// Rank 3 cuts the buffer differently from the others: every rank must
	// panic naming both bounds, not copy a span its owner never published.
	for _, prov := range allProviders() {
		colls := connectOrFatal(t, prov, 4)
		msgs := panicsOnEveryRank(t, colls, func(rank int, c Collective) {
			bounds := []int{0, 16, 32, 48, 64}
			if rank == 3 {
				bounds = []int{0, 16, 32, 40, 64}
			}
			c.AllGatherInPlace(make([]float32, 64), bounds)
		})
		want := "comm: span bounds mismatch across ranks: rank 0 entered allgather_inplace(64, bounds [0 16 32 48 64]), rank 3 entered allgather_inplace(64, bounds [0 16 32 40 64])"
		for r, msg := range msgs {
			if msg != want {
				t.Errorf("%s: rank %d panicked with %q, want %q", prov.Name(), r, msg, want)
			}
		}
	}
}

func TestAllGatherInPlaceBadBoundsPanic(t *testing.T) {
	bad := map[int][][]int{
		1: {nil, {0}, {0, 1, 2}, {-1, 2}, {3, 2}, {0, 6}},
		3: {nil, {0, 1, 2}, {0, 1, 2, 3, 4}, {-1, 0, 1, 2}, {0, 2, 1, 5}, {0, 1, 2, 6}},
	}
	for _, prov := range allProviders() {
		for n, cases := range bad {
			for _, bounds := range cases {
				colls := connectOrFatal(t, prov, n)
				msgs := panicsOnEveryRank(t, colls, func(rank int, c Collective) {
					c.AllGatherInPlace(make([]float32, 5), bounds)
				})
				want := fmt.Sprintf("comm: all-gather bounds %v are not %d ascending offsets within a buffer of 5", bounds, n+1)
				for r, msg := range msgs {
					if msg != want {
						t.Errorf("%s n=%d bounds %v: rank %d panicked with %q, want %q", prov.Name(), n, bounds, r, msg, want)
					}
				}
			}
		}
	}
}

func TestBroadcastRootOutOfRangePanics(t *testing.T) {
	for _, prov := range allProviders() {
		for _, n := range []int{1, 3, 4} {
			for _, root := range []int{n, -1} {
				colls := connectOrFatal(t, prov, n)
				msgs := panicsOnEveryRank(t, colls, func(rank int, c Collective) {
					c.Broadcast(make([]float32, 5), root)
				})
				want := fmt.Sprintf("comm: broadcast root %d out of range for world size %d", root, n)
				for r, msg := range msgs {
					if msg != want {
						t.Errorf("%s n=%d root %d: rank %d panicked with %q, want %q", prov.Name(), n, root, r, msg, want)
					}
				}
			}
		}
	}
}
