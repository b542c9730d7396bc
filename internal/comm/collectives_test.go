package comm

// Tests of the Collective interface across all four implementations. Every
// collective runs at odd and non-power-of-two world sizes (3, 5, 6, 7) as
// well as the friendly ones — the silent assumptions of power-of-two worlds
// are exactly what these sizes flush out.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"effnetscale/internal/topology"
)

// allProviders returns every provider family, parameterized for world n.
func allProviders() []Provider {
	return []Provider{
		RingProvider(),
		TreeProvider(),
		Torus2DProvider(topology.Slice{}),
		AutoProvider(topology.Slice{}),
	}
}

var testWorldSizes = []int{1, 2, 3, 4, 5, 6, 7, 8}

func connectOrFatal(t *testing.T, p Provider, n int) []Collective {
	t.Helper()
	colls, err := p.Connect(n)
	if err != nil {
		t.Fatalf("%s.Connect(%d): %v", p.Name(), n, err)
	}
	if len(colls) != n {
		t.Fatalf("%s.Connect(%d) returned %d endpoints", p.Name(), n, len(colls))
	}
	return colls
}

func TestAllReduceAllImplementationsAllWorldSizes(t *testing.T) {
	for _, prov := range allProviders() {
		for _, n := range testWorldSizes {
			for _, l := range []int{1, 3, 37, 1037} {
				rng := rand.New(rand.NewSource(int64(n*10000 + l)))
				inputs := make([][]float32, n)
				want := make([]float64, l)
				for r := range inputs {
					inputs[r] = make([]float32, l)
					for i := range inputs[r] {
						inputs[r][i] = float32(rng.NormFloat64())
						want[i] += float64(inputs[r][i])
					}
				}
				colls := connectOrFatal(t, prov, n)
				results := make([][]float32, n)
				runCollectives(colls, func(rank int, c Collective) {
					buf := append([]float32(nil), inputs[rank]...)
					c.AllReduce(buf)
					results[rank] = buf
				})
				for r := 0; r < n; r++ {
					for i := range want {
						if math.Abs(float64(results[r][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
							t.Fatalf("%s n=%d l=%d rank %d elem %d: got %v, want %v",
								prov.Name(), n, l, r, i, results[r][i], want[i])
						}
					}
					// Ranks must agree bitwise or SPMD replicas drift.
					for i := range results[0] {
						if results[r][i] != results[0][i] {
							t.Fatalf("%s n=%d l=%d: ranks 0 and %d disagree bitwise at %d",
								prov.Name(), n, l, r, i)
						}
					}
				}
			}
		}
	}
}

func TestAllReduceF64AllImplementationsOddWorlds(t *testing.T) {
	for _, prov := range allProviders() {
		for _, n := range []int{3, 5, 6, 7, 8} {
			for _, l := range []int{1, 29} { // 1: a scalar count or loss
				rng := rand.New(rand.NewSource(int64(n)))
				inputs := make([][]float64, n)
				want := make([]float64, l)
				for r := range inputs {
					inputs[r] = make([]float64, l)
					for i := range inputs[r] {
						inputs[r][i] = rng.NormFloat64()
						want[i] += inputs[r][i]
					}
				}
				colls := connectOrFatal(t, prov, n)
				results := make([][]float64, n)
				runCollectives(colls, func(rank int, c Collective) {
					buf := append([]float64(nil), inputs[rank]...)
					c.AllReduceF64(buf)
					results[rank] = buf
				})
				for r := 0; r < n; r++ {
					for i := range want {
						if math.Abs(results[r][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
							t.Fatalf("%s n=%d l=%d rank %d elem %d: got %v, want %v",
								prov.Name(), n, l, r, i, results[r][i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestAllGatherAllImplementationsOrdersChunksByRank(t *testing.T) {
	for _, prov := range allProviders() {
		for _, n := range []int{1, 3, 5, 6, 7, 8} {
			l := 3
			colls := connectOrFatal(t, prov, n)
			results := make([][]float32, n)
			runCollectives(colls, func(rank int, c Collective) {
				local := make([]float32, l)
				for i := range local {
					local[i] = float32(rank*10 + i)
				}
				out := make([]float32, n*l)
				c.AllGather(local, out)
				results[rank] = out
			})
			for r := 0; r < n; r++ {
				for src := 0; src < n; src++ {
					for i := 0; i < l; i++ {
						want := float32(src*10 + i)
						if got := results[r][src*l+i]; got != want {
							t.Fatalf("%s n=%d rank %d: out[%d] = %v, want %v",
								prov.Name(), n, r, src*l+i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCrossAlgorithmConsistency(t *testing.T) {
	// Ring, Tree and Torus2D all-reduce of the same payload must agree
	// within float tolerance — they are different summation orders of the
	// same sum, so results may differ in the last bits but nothing more.
	for _, n := range []int{3, 4, 6, 8} {
		l := 513
		rng := rand.New(rand.NewSource(int64(n * 31)))
		inputs := make([][]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, l)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.NormFloat64())
			}
		}
		reduced := map[string][][]float32{}
		for _, prov := range []Provider{RingProvider(), TreeProvider(), Torus2DProvider(topology.Slice{})} {
			colls := connectOrFatal(t, prov, n)
			results := make([][]float32, n)
			runCollectives(colls, func(rank int, c Collective) {
				buf := append([]float32(nil), inputs[rank]...)
				c.AllReduce(buf)
				results[rank] = buf
			})
			reduced[prov.Name()] = results
		}
		ring := reduced["ring"]
		for name, results := range reduced {
			for i := range ring[0] {
				diff := math.Abs(float64(results[0][i] - ring[0][i]))
				if diff > 1e-4*(1+math.Abs(float64(ring[0][i]))) {
					t.Fatalf("n=%d: %s and ring disagree at %d: %v vs %v", n, name, i, results[0][i], ring[0][i])
				}
			}
		}
	}
}

func TestAlgorithmReporting(t *testing.T) {
	// The silent tree→ring fallback of non-power-of-two worlds must be
	// observable through Algorithm().
	for _, tc := range []struct {
		n    int
		want string
	}{
		{4, "tree"},
		{8, "tree"},
		{3, "tree(ring-fallback,n=3)"},
		{6, "tree(ring-fallback,n=6)"},
	} {
		colls := connectOrFatal(t, TreeProvider(), tc.n)
		if got := colls[0].Algorithm(); got != tc.want {
			t.Errorf("Tree n=%d: Algorithm() = %q, want %q", tc.n, got, tc.want)
		}
	}

	colls := connectOrFatal(t, RingProvider(), 4)
	if got := colls[0].Algorithm(); got != "ring" {
		t.Errorf("Ring: Algorithm() = %q", got)
	}

	colls = connectOrFatal(t, Torus2DProvider(topology.Slice{Rows: 2, Cols: 3}), 6)
	if got := colls[0].Algorithm(); got != "torus2d(2x3)" {
		t.Errorf("Torus2D: Algorithm() = %q, want torus2d(2x3)", got)
	}

	colls = connectOrFatal(t, AutoProvider(topology.Slice{}), 4)
	if got := colls[0].Algorithm(); !strings.HasPrefix(got, "auto[") {
		t.Errorf("Auto: Algorithm() = %q, want auto[...]", got)
	}
}

func TestAutoPicksTreeForSmallTorusForLarge(t *testing.T) {
	// 16 ranks on a 4x4 grid: a few floats are latency-bound (tree wins);
	// tens of MB are bandwidth-bound (hierarchical torus wins).
	colls := connectOrFatal(t, AutoProvider(topology.Slice{Rows: 4, Cols: 4}), 16)
	auto := colls[0].(*Auto)
	if got := auto.ChooseFor(64); got != "tree" {
		t.Errorf("Auto.ChooseFor(64B) = %q, want tree", got)
	}
	if got := auto.ChooseFor(64 << 20); !strings.HasPrefix(got, "torus2d") {
		t.Errorf("Auto.ChooseFor(64MB) = %q, want torus2d(...)", got)
	}
	// The provider's analytic pricing must make the identical choice — the
	// functional and analytic halves can no longer drift apart.
	_, algo := AutoProvider(topology.Slice{Rows: 4, Cols: 4}).ModelAllReduce(64, 16, TPUv3Links)
	if algo != "tree" {
		t.Errorf("AutoProvider.ModelAllReduce(64B) charged %q, want tree", algo)
	}
	_, algo = AutoProvider(topology.Slice{Rows: 4, Cols: 4}).ModelAllReduce(64<<20, 16, TPUv3Links)
	if !strings.HasPrefix(algo, "torus2d") {
		t.Errorf("AutoProvider.ModelAllReduce(64MB) charged %q, want torus2d(...)", algo)
	}
}

func TestTorus2DGridResolution(t *testing.T) {
	// A slice matching the world keeps its geometry; a slice matching the
	// world in cores uses the row-major core grid; anything else factorizes
	// near-square.
	for _, tc := range []struct {
		n     int
		slice topology.Slice
		want  topology.Slice
	}{
		{6, topology.Slice{Rows: 2, Cols: 3}, topology.Slice{Rows: 2, Cols: 3}},
		{32, topology.Slice{Rows: 4, Cols: 4}, topology.Slice{Rows: 4, Cols: 8}}, // 32 cores on a 4x4 chip slice
		{12, topology.Slice{}, topology.Slice{Rows: 3, Cols: 4}},
		{7, topology.Slice{}, topology.Slice{Rows: 1, Cols: 7}}, // prime: degenerate ring
		{9, topology.Slice{Rows: 2, Cols: 2}, topology.Slice{Rows: 3, Cols: 3}},
	} {
		if got := gridFor(tc.n, tc.slice); got != tc.want {
			t.Errorf("gridFor(%d, %v) = %v, want %v", tc.n, tc.slice, got, tc.want)
		}
	}
}

func TestProviderByName(t *testing.T) {
	for _, name := range []string{"ring", "tree", "torus2d", "auto"} {
		p, err := ProviderByName(name, topology.Slice{Rows: 2, Cols: 2})
		if err != nil {
			t.Fatalf("ProviderByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ProviderByName(%q).Name() = %q", name, p.Name())
		}
		if _, err := p.Connect(4); err != nil {
			t.Errorf("%s.Connect(4): %v", name, err)
		}
	}
	if _, err := ProviderByName("bogus", topology.Slice{}); err == nil {
		t.Fatal("unknown provider name must error")
	}
	var zero Provider
	if !zero.IsZero() {
		t.Fatal("zero Provider must report IsZero")
	}
	if _, err := zero.Connect(2); err == nil {
		t.Fatal("zero Provider Connect must error")
	}
}

func TestTorus2DModelMatchesExecutableShape(t *testing.T) {
	// The executable Torus2D and the analytic Torus2DAllReduceSeconds are
	// the same algorithm: both price/run a row phase on the full payload and
	// a column phase on the 1/cols share. Check the provider reports the
	// grid the executable endpoints actually use.
	slice := topology.Slice{Rows: 2, Cols: 4}
	prov := Torus2DProvider(slice)
	colls := connectOrFatal(t, prov, 8)
	_, algo := prov.ModelAllReduce(1<<20, 8, TPUv3Links)
	if algo != colls[0].Algorithm() {
		t.Fatalf("modelled algorithm %q != executable algorithm %q", algo, colls[0].Algorithm())
	}
	if g := colls[0].(*Torus2D).Grid(); g != slice {
		t.Fatalf("Grid() = %v, want %v", g, slice)
	}
}

func TestCollectiveRankAndWorldSize(t *testing.T) {
	for _, prov := range allProviders() {
		colls := connectOrFatal(t, prov, 6)
		for r, c := range colls {
			if c.Rank() != r {
				t.Fatalf("%s: endpoint %d reports rank %d", prov.Name(), r, c.Rank())
			}
			if c.WorldSize() != 6 {
				t.Fatalf("%s: WorldSize = %d, want 6", prov.Name(), c.WorldSize())
			}
		}
	}
}

func TestTreeCostBeatsRingForSmallPayloads(t *testing.T) {
	lp := LinkParams{BandwidthGBs: 45, LatencyUS: 1.5}
	small := 1024 // 1 KiB of BN stats
	if TreeAllReduceSeconds(small, 64, lp) >= RingAllReduceSeconds(small, 64, lp) {
		t.Fatal("tree must beat ring for small payloads at 64 nodes")
	}
	big := 64 << 20
	if TreeAllReduceSeconds(big, 64, lp) <= RingAllReduceSeconds(big, 64, lp) {
		t.Fatal("ring must beat tree for large payloads")
	}
	if TreeAllReduceSeconds(small, 1, lp) != 0 {
		t.Fatal("single-node tree must be free")
	}
}

func ExampleProviderByName() {
	prov, _ := ProviderByName("tree", topology.Slice{})
	colls, _ := prov.Connect(6)
	fmt.Println(colls[0].Algorithm())
	// Output: tree(ring-fallback,n=6)
}
