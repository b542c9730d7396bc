package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds concurrency for all helpers in this package. It defaults
// to GOMAXPROCS and may be lowered in tests via SetMaxWorkers.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetMaxWorkers overrides the worker bound. n < 1 resets to GOMAXPROCS.
// It returns the previous value so callers can restore it.
func SetMaxWorkers(n int) int {
	prev := int(maxWorkers.Load())
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers.Store(int64(n))
	return prev
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// minGrain is the smallest amount of per-worker iteration count worth the
// cost of spawning a goroutine. Loops smaller than this run serially.
const minGrain = 256

// For runs body(i) for every i in [0, n), potentially in parallel. Iterations
// must be independent. Loops of at most minGrain iterations run inline on the
// calling goroutine — For is meant for cheap per-index bodies; loops with
// expensive iterations should use ForChunked with a small grain instead.
func For(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	if n <= minGrain || MaxWorkers() <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	ForChunked(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked divides [0, n) into contiguous chunks and invokes body(lo, hi)
// for each chunk, potentially in parallel. grain is the minimum chunk size
// (values < 1 are treated as 1): the caller's statement of how many
// iterations are worth one goroutine. When n <= grain the whole range is a
// single chunk and runs inline on the calling goroutine — a larger grain
// makes the serial path more likely, never less. Chunks never overlap and
// cover [0, n) exactly.
func ForChunked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	// Serial fast path: a single worker, or at most one grain's worth of
	// work. (This used to test n*grain <= minGrain, which inverted the
	// heuristic: declaring bigger chunks made goroutine spawning *more*
	// likely, so n=2 with grain=4096 paid goroutine+WaitGroup overhead for
	// work its caller had declared must run as one chunk.)
	if workers <= 1 || n <= grain {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < grain {
		chunk = grain
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Do runs the given functions concurrently and waits for all of them.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}
