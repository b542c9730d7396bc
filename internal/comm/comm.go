package comm

import (
	"fmt"
	"slices"
	"sync"
)

// float is the element type a reduction runs over: float32 for gradients,
// float64 for batch-norm statistics and metrics.
type float interface{ float32 | float64 }

// world connects n ranks through shared slots. A collective publishes its
// call (op, length, buffer) in its rank's slot, waits at the world's barrier,
// reads its peers' slots directly, and waits again: two barrier waits per
// call at any world size, where a ring of channels takes 2(n−1) hops.
//
// Each rank is driven by its own goroutine, and a world carries one
// collective at a time per rank: a rank enters its next call only after its
// previous one returned. Uses that can overlap get worlds of their own — the
// replica engine connects one for gradients and metrics, one per BN group and
// one per mesh axis.
type world struct {
	n     int
	slots []slot
	bar   *cyclicBarrier
}

// slot is one rank's mailbox. The rank writes op, n, bounds and a
// lane's buf before a call's first wait; peers read them before its second.
// A lane's scratch is resized and written only by its rank, after a first
// wait, and peers read it after a later wait of the same call — a rank
// cannot rewrite it before every peer has reached its next call's first
// wait.
type slot struct {
	op     Op
	n      int   // payload length in elements
	bounds []int // in-place all-gather spans; nil for every other op
	f32    lane[float32]
	f64    lane[float64]
}

type lane[T float] struct {
	buf     []T
	scratch []T
}

// laneOf returns the slot's lane for element type T.
func laneOf[T float](s *slot) *lane[T] {
	if l, ok := any(&s.f32).(*lane[T]); ok {
		return l
	}
	return any(&s.f64).(*lane[T])
}

// newWorld creates a communication world of n ranks.
func newWorld(n int) *world {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	return &world{n: n, slots: make([]slot, n), bar: newCyclicBarrier(n)}
}

// cyclicBarrier is a reusable rendezvous for n goroutines.
type cyclicBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *cyclicBarrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// peer returns rank r's endpoint.
func (w *world) peer(r int) *peer {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, w.n))
	}
	return &peer{w: w, rank: r}
}

// peer is one rank's view of a world, the transport the Collective
// implementations are built on. Every collective must be entered by every
// rank of the world, from distinct goroutines.
type peer struct {
	w    *world
	rank int
}

// publish posts this rank's call in its slot, waits until every rank has
// posted, and checks that all of them entered the same collective: a
// mismatch panics on every rank, so none is left waiting.
func publish[T float](p *peer, op Op, buf []T, bounds []int) {
	s := &p.w.slots[p.rank]
	s.op, s.n, s.bounds = op, len(buf), bounds
	laneOf[T](s).buf = buf
	p.w.bar.wait()
	p.w.check()
}

// check compares every rank's posted call with rank 0's.
func (w *world) check() {
	a := &w.slots[0]
	for j := 1; j < w.n; j++ {
		b := &w.slots[j]
		if b.op == a.op && b.n == a.n && slices.Equal(b.bounds, a.bounds) {
			continue
		}
		what := "collective"
		switch {
		case b.op != a.op:
		case b.n != a.n:
			what = "buffer length"
		default:
			what = "span bounds"
		}
		panic(fmt.Sprintf("comm: %s mismatch across ranks: rank 0 entered %s, rank %d entered %s", what, a.call(), j, b.call()))
	}
}

func (s *slot) call() string {
	if s.op == OpAllGatherInPlace {
		return fmt.Sprintf("%s(%d, bounds %v)", s.op, s.n, s.bounds)
	}
	return fmt.Sprintf("%s(%d)", s.op, s.n)
}

// scratch resizes this rank's scratch to n elements and returns it. Call it
// only after the current call's first wait.
func scratch[T float](p *peer, n int) []T {
	l := laneOf[T](&p.w.slots[p.rank])
	if cap(l.scratch) < n {
		l.scratch = make([]T, n)
	}
	l.scratch = l.scratch[:n]
	return l.scratch
}

// chunkBounds splits length l into n contiguous chunks; chunk i is
// [lo, hi). Chunks may be empty when l < n.
func chunkBounds(l, n, i int) (lo, hi int) {
	base := l / n
	rem := l % n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
