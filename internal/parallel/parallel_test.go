package parallel

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// gid returns the current goroutine's id (test-only; parsed from the stack
// header "goroutine N [...").
func gid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	if i := bytes.IndexByte(buf, ' '); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

func TestForChunkedSingleChunkRunsInline(t *testing.T) {
	// n <= grain means one chunk: it must run on the calling goroutine, not
	// pay goroutine+WaitGroup overhead. (Regression: the old heuristic
	// n*grain <= minGrain made a larger grain MORE likely to spawn.)
	caller := gid()
	for _, c := range []struct{ n, grain int }{{2, 4096}, {300, 300}, {1, 1}, {256, 1024}} {
		calls := 0
		ForChunked(c.n, c.grain, func(lo, hi int) {
			calls++
			if lo != 0 || hi != c.n {
				t.Errorf("n=%d grain=%d: chunk [%d,%d), want [0,%d)", c.n, c.grain, lo, hi, c.n)
			}
			if g := gid(); g != caller {
				t.Errorf("n=%d grain=%d: ran on goroutine %s, want inline on %s", c.n, c.grain, g, caller)
			}
		})
		if calls != 1 {
			t.Errorf("n=%d grain=%d: %d body calls, want 1", c.n, c.grain, calls)
		}
	}
}

func TestForChunkedRespectsGrain(t *testing.T) {
	// When it does go parallel, every chunk except the last must hold at
	// least grain iterations.
	const n, grain = 10000, 64
	var minSeen atomic.Int64
	minSeen.Store(n)
	var last atomic.Int64
	ForChunked(n, grain, func(lo, hi int) {
		if hi == n {
			last.Store(int64(hi - lo))
			return
		}
		for {
			cur := minSeen.Load()
			if int64(hi-lo) >= cur || minSeen.CompareAndSwap(cur, int64(hi-lo)) {
				break
			}
		}
	})
	if minSeen.Load() < grain {
		t.Fatalf("non-final chunk of %d iterations, want >= %d", minSeen.Load(), grain)
	}
}

func TestForSmallLoopRunsInline(t *testing.T) {
	caller := gid()
	For(100, func(i int) {
		if g := gid(); g != caller {
			t.Fatalf("For(100) iteration ran on goroutine %s, want inline", g)
		}
	})
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1000, 4096} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedExactPartition(t *testing.T) {
	f := func(n uint16, grain uint8) bool {
		nn := int(n) % 5000
		var total int64
		ForChunked(nn, int(grain), func(lo, hi int) {
			if lo < 0 || hi > nn || lo > hi {
				t.Fatalf("bad chunk [%d,%d) for n=%d", lo, hi, nn)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(nn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatal("SetMaxWorkers(1) not applied")
	}
	var ran int
	For(1000, func(i int) { ran++ }) // safe: single worker means serial
	if ran != 1000 {
		t.Fatalf("serial run visited %d of 1000", ran)
	}
	if got := SetMaxWorkers(0); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want previous value 1", got)
	}
	if MaxWorkers() < 1 {
		t.Fatal("reset worker count must be >= 1")
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
	Do(func() { a.Store(10) }) // single-function fast path
	if a.Load() != 10 {
		t.Fatal("Do single-function path failed")
	}
}
