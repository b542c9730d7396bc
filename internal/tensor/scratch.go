package tensor

import (
	"math/bits"
	"sync"
)

// Scratch is a reusable pool of float32 buffers for kernel temporaries:
// im2col column matrices, packed GEMM panels, strided 1×1-conv gathers and
// per-worker weight-gradient partials. Kernels that accept a *Scratch draw
// every temporary from it instead of calling make, so a steady-state
// training or serving step performs zero kernel allocations (see
// BenchmarkConv allocs/op).
//
// Buffers are recycled through power-of-two size-class pools: a kernel that
// interleaves a large im2col buffer with small packing panels never evicts
// one with the other, which is what keeps the steady state allocation-free.
//
// A Scratch is safe for concurrent use: each size class is a sync.Pool, so
// parallel kernel workers check out their own buffers. Passing nil to any
// kernel falls back to a process-wide default pool. The replica engine
// owns one Scratch per engine and threads it through nn.Ctx so concurrent
// engines (train + serve in one process) keep separate working sets;
// dropping the engine releases the pool to the garbage collector. (A
// Scratch lends buffers for the length of one kernel call; the tensors a
// step keeps come from an Arena.)
type Scratch struct {
	classes [33]sync.Pool // classes[b] holds buffers with cap >= 1<<b
}

// NewScratch returns an empty pool. Buffers are created on demand and
// sized to their class, so the pool's footprint is the high-water mark
// of the kernels that borrow from it (rounded up to powers of two).
func NewScratch() *Scratch {
	return &Scratch{}
}

// defaultScratch serves kernels called with a nil *Scratch.
var defaultScratch = NewScratch()

func (s *Scratch) orDefault() *Scratch {
	if s == nil {
		return defaultScratch
	}
	return s
}

// sizeClass is the smallest b with 1<<b >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get borrows a buffer of length n (contents undefined). The returned
// pointer must be handed back via put; the *[]float32 indirection keeps
// Put from allocating a fresh interface box on every cycle.
func (s *Scratch) get(n int) *[]float32 {
	b := sizeClass(n)
	p, _ := s.classes[b].Get().(*[]float32)
	if p == nil {
		buf := make([]float32, n, 1<<b)
		return &buf
	}
	*p = (*p)[:n]
	return p
}

// getZeroed borrows a buffer of length n with every element set to zero.
func (s *Scratch) getZeroed(n int) *[]float32 {
	p := s.get(n)
	buf := *p
	for i := range buf {
		buf[i] = 0
	}
	return p
}

func (s *Scratch) put(p *[]float32) {
	c := cap(*p)
	if c == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a future
	// get of that class is always satisfied without reallocation.
	b := bits.Len(uint(c)) - 1
	s.classes[b].Put(p)
}
