package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"effnetscale/internal/topology"
)

// runWorld drives body(rank, peer) on n goroutines and waits.
func runWorld(n int, body func(rank int, p *peer)) {
	w := newWorld(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r, w.peer(r))
		}(r)
	}
	wg.Wait()
}

// runCollectives drives body(rank, colls[rank]) on len(colls) goroutines.
func runCollectives(colls []Collective, body func(rank int, c Collective)) {
	var wg sync.WaitGroup
	for r := range colls {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(r, colls[r])
		}(r)
	}
	wg.Wait()
}

func TestRingAllReduceMatchesSequentialSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for _, l := range []int{1, 5, 16, 100, 1037} {
			rng := rand.New(rand.NewSource(int64(n*1000 + l)))
			inputs := make([][]float32, n)
			want := make([]float64, l)
			for r := 0; r < n; r++ {
				inputs[r] = make([]float32, l)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					want[i] += float64(inputs[r][i])
				}
			}
			results := make([][]float32, n)
			runWorld(n, func(rank int, p *peer) {
				buf := append([]float32(nil), inputs[rank]...)
				ringAllReduce(p, buf)
				results[rank] = buf
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(float64(results[r][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
						t.Fatalf("n=%d l=%d rank %d elem %d: got %v, want %v", n, l, r, i, results[r][i], want[i])
					}
				}
			}
			// Bitwise consistency across ranks: every replica must hold
			// exactly the same weights after the gradient all-reduce, or
			// replicas drift apart step by step.
			for r := 1; r < n; r++ {
				for i := range results[0] {
					if results[r][i] != results[0][i] {
						t.Fatalf("n=%d l=%d: ranks 0 and %d disagree bitwise at %d", n, l, r, i)
					}
				}
			}
		}
	}
}

func TestRingAllReduceF64PropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		n := int(nRaw)%6 + 1
		l := int(lRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		want := make([]float64, l)
		for r := range inputs {
			inputs[r] = make([]float64, l)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		runWorld(n, func(rank int, p *peer) {
			buf := append([]float64(nil), inputs[rank]...)
			ringAllReduce(p, buf)
			for i := range want {
				if math.Abs(buf[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	n := 8
	var phase [8]int32
	runWorld(n, func(rank int, p *peer) {
		phase[rank] = 1
		p.w.bar.wait()
		// After the barrier, every rank must have set phase 1.
		for r := 0; r < n; r++ {
			if phase[r] != 1 {
				t.Errorf("rank %d passed barrier before rank %d arrived", rank, r)
			}
		}
		p.w.bar.wait()
	})
}

func TestSingleRankCollectivesNoop(t *testing.T) {
	runWorld(1, func(rank int, p *peer) {
		buf := []float32{1, 2, 3}
		ringAllReduce(p, buf)
		if buf[0] != 1 || buf[2] != 3 {
			t.Error("single-rank all-reduce must be identity")
		}
		p.w.bar.wait()
	})
}

func TestPeerRankValidation(t *testing.T) {
	w := newWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range peer() must panic")
		}
	}()
	w.peer(2)
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	f := func(lRaw uint16, nRaw uint8) bool {
		l := int(lRaw) % 5000
		n := int(nRaw)%32 + 1
		prev := 0
		for i := 0; i < n; i++ {
			lo, hi := chunkBounds(l, n, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWarmCollectivesAllocateNothing(t *testing.T) {
	// Once each rank's scratch has grown to the payload, a collective
	// allocates nothing on any rank. Ranks 1..n−1 run on their own
	// goroutines; rank 0 runs under AllocsPerRun, which counts every
	// goroutine's allocations.
	if raceEnabled {
		t.Skip("the race detector allocates inside sync primitives")
	}
	const n, l, runs = 4, 1037, 50
	for _, prov := range allProviders() {
		colls := connectOrFatal(t, prov, n)
		f32, f64, out := make([][]float32, n), make([][]float64, n), make([][]float32, n)
		bounds := []int{0, 100, 500, 501, l}
		for r := range colls {
			f32[r], f64[r], out[r] = make([]float32, l), make([]float64, l), make([]float32, n*l)
		}
		for _, tc := range []struct {
			name string
			call func(rank int)
		}{
			{"AllReduce", func(r int) { colls[r].AllReduce(f32[r]) }},
			{"AllReduceF64", func(r int) { colls[r].AllReduceF64(f64[r]) }},
			{"AllGather", func(r int) { colls[r].AllGather(f32[r], out[r]) }},
			{"AllGatherInPlace", func(r int) { colls[r].AllGatherInPlace(f32[r], bounds) }},
		} {
			// One warm-up call, AllocsPerRun's own warm-up, then the runs.
			var wg sync.WaitGroup
			for r := 1; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < runs+2; i++ {
						tc.call(r)
					}
				}(r)
			}
			tc.call(0)
			allocs := testing.AllocsPerRun(runs, func() { tc.call(0) })
			wg.Wait()
			if allocs != 0 {
				t.Errorf("%s %s: %v allocations per warm call, want 0", prov.Name(), tc.name, allocs)
			}
		}
	}
}

// --- Cost-model tests -------------------------------------------------------

func TestRingCostMonotoneInBytes(t *testing.T) {
	lp := TPUv3Links
	if RingAllReduceSeconds(1<<20, 8, lp) >= RingAllReduceSeconds(1<<24, 8, lp) {
		t.Fatal("ring cost must grow with payload")
	}
	if RingAllReduceSeconds(1<<20, 1, lp) != 0 {
		t.Fatal("single-node all-reduce must be free")
	}
}

func TestRingCostApproachesBandwidthBound(t *testing.T) {
	// For large payloads, time ≈ 2B/bw regardless of n (the (n−1)/n factor
	// saturates) — this is why the paper's all-reduce percentage stays
	// nearly flat from 128 to 1024 cores.
	lp := LinkParams{BandwidthGBs: 50, LatencyUS: 0}
	b := 100 << 20
	t64 := RingAllReduceSeconds(b, 64, lp)
	t1024 := RingAllReduceSeconds(b, 1024, lp)
	if t1024 < t64 {
		t.Fatal("cost must be nondecreasing in n at zero latency")
	}
	if t1024 > t64*1.05 {
		t.Fatalf("ring cost must saturate: t64=%v t1024=%v", t64, t1024)
	}
}

func TestTorus2DCheaperThanFlatRingForLargeSlices(t *testing.T) {
	// With per-hop latency, the 2-D hierarchical algorithm beats a flat
	// ring over all chips (fewer, shorter phases) — the reason pods use it.
	lp := LinkParams{BandwidthGBs: 45, LatencyUS: 1.5}
	slice, err := topology.SliceForCores(1024)
	if err != nil {
		t.Fatal(err)
	}
	bytes := 36 << 20
	flat := RingAllReduceSeconds(bytes, slice.Chips(), lp)
	hier := Torus2DAllReduceSeconds(bytes, slice, lp)
	if hier >= flat {
		t.Fatalf("2-D torus all-reduce (%v) must beat flat ring (%v) at 512 chips", hier, flat)
	}
}

func TestGroupAllReduceDiameterMatters(t *testing.T) {
	// Same group size, smaller diameter (2-D tile) must cost no more than a
	// long 1-D run — quantifying §3.4's tiling rationale.
	lp := TPUv3Links
	bytes := 4096                                      // per-channel stats are small
	compact := GroupAllReduceSeconds(bytes, 32, 8, lp) // 2-D tile: diameter ~8
	strung := GroupAllReduceSeconds(bytes, 32, 31, lp) // 1-D run: diameter 31
	if compact >= strung {
		t.Fatalf("compact group (%v) must be cheaper than strung-out group (%v)", compact, strung)
	}
	if GroupAllReduceSeconds(bytes, 1, 0, lp) != 0 {
		t.Fatal("group of one must be free")
	}
}
