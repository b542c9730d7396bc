package replica

// Sharded weight update (Xu et al., arXiv:2004.13336; ZeRO stage 1,
// Rajbhandari et al., arXiv:1910.02054). Every rank holds the full averaged
// gradient after the all-reduce, but each data-axis rank averages and
// updates only a contiguous run of whole parameters it owns, and one
// in-place all-gather then copies every owner's updated weights into its
// peers. Ownership is per whole parameter, so LARS's and LAMB's per-layer
// trust ratios see the whole tensor; the update is per-element arithmetic on
// the same inputs, and the refresh is a copy, so the weights come out bit for
// bit what every rank updating everything would produce.

// ownership cuts parameters, given by their [lo, hi) spans in Params()
// order, into d contiguous runs, one per data-axis rank. Rank k owns
// parameters [cuts[k], cuts[k+1]), which are floats [bounds[k], bounds[k+1])
// of the flat weight and gradient buffers. The runs form the linear
// partition that minimises the largest run's float count; when d exceeds
// what that needs, the last ranks own nothing.
func ownership(spans [][2]int, d int) (cuts, bounds []int) {
	sizes := make([]int, len(spans))
	lo, hi := 0, 0
	for i, s := range spans {
		sizes[i] = s[1] - s[0]
		lo = max(lo, sizes[i])
		hi += sizes[i]
	}
	// The fewest runs a greedy fill needs falls as the capacity grows, so a
	// binary search finds the smallest capacity that fits in d runs.
	for lo < hi {
		c := lo + (hi-lo)/2
		if len(packRuns(sizes, c))-1 <= d {
			hi = c
		} else {
			lo = c + 1
		}
	}
	cuts = packRuns(sizes, lo)
	for len(cuts) < d+1 {
		cuts = append(cuts, len(sizes))
	}
	return cuts, cutOffsets(spans, cuts)
}

// cutOffsets maps parameter cut indices to float offsets: the start of
// parameter c, or the end of the last parameter when c is past it.
func cutOffsets(spans [][2]int, cuts []int) []int {
	bounds := make([]int, len(cuts))
	for k, c := range cuts {
		if c < len(spans) {
			bounds[k] = spans[c][0]
		} else if c > 0 {
			bounds[k] = spans[c-1][1]
		}
	}
	return bounds
}

// packRuns fills runs of at most capacity floats in order (a parameter
// larger than capacity gets a run to itself) and returns the cut indices:
// 0, the first parameter of each later run, then len(sizes).
func packRuns(sizes []int, capacity int) []int {
	cuts := []int{0}
	run := 0
	for i, n := range sizes {
		if run > 0 && run+n > capacity {
			cuts = append(cuts, i)
			run = 0
		}
		run += n
	}
	return append(cuts, len(sizes))
}
