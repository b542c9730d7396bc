package tensor

import (
	"math"
	"testing"
)

// Arena is a step-lifetime bump allocator: New hands out zeroed tensors whose
// data, header and shape come from slabs the arena owns, and Reset takes every
// hand-out back at once. The replica engine gives each replica one arena for
// the op outputs, backward temporaries and activation gradients of a
// micro-batch and resets it when the micro-batch is done — the step-scoped
// counterpart of the static buffer assignment XLA gives a TPU program (the
// paper's §2).
//
// The first step sizes the arena: what the slab cannot hold is chained as a
// chunk of its own, an ordinary heap allocation of the hand-out's size, so a
// first step costs what it did before the arena and leaves garbage like any
// other. After Reset the step's slab and chunks are merged into one slab that
// holds all of them, built by the first New that needs it (an engine closed
// after one step never pays for it). From then on every New is a pointer bump
// and a clear over memory the previous step warmed, and a step that
// allocates what the last one did touches the heap not at all.
//
// A nil *Arena is the heap: New allocates exactly as the package-level New
// does. An Arena is not safe for concurrent use.
type Arena struct {
	data   bump[float32]
	shapes bump[int]
	heads  bump[Tensor]
}

// NewArena returns an empty arena; the first step it serves sizes its slabs.
func NewArena() *Arena { return &Arena{} }

// arenaAlign is the granule data hand-outs are rounded up to: 16 floats, one
// 64-byte cache line, so two tensors never share a line and every tensor
// starts where the slab's alignment puts the first.
const arenaAlign = 16

// New returns a zero-filled tensor of the given shape from the arena, or from
// the heap when a is nil. The tensor is valid until the next Reset.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	t := &a.heads.take(1)[0]
	t.shape = a.shapes.take(len(shape))
	copy(t.shape, shape)
	t.data = a.data.take((n + arenaAlign - 1) &^ (arenaAlign - 1))[:n:n]
	return t
}

// Reset releases every tensor the arena has handed out; if the step chained
// chunks, the next New builds one slab for the whole step. Under go test the
// released data is filled with NaN first, so a tensor read after its step
// has ended poisons whatever it feeds instead of passing silently.
func (a *Arena) Reset() {
	var poison func([]float32)
	if testing.Testing() {
		poison = fillNaN
	}
	a.data.reset(poison)
	a.shapes.reset(nil)
	a.heads.reset(nil)
}

func fillNaN(s []float32) {
	nan := float32(math.NaN())
	for i := range s {
		s[i] = nan
	}
}

// bump is one typed region of an Arena: a slab, plus the heap allocations of
// a step that outgrew it.
type bump[T any] struct {
	slab   []T
	off    int   // elements of slab taken
	chunks [][]T // takes the slab could not hold this step
	used   int   // elements handed out since the last reset
	// merge is the size of the one slab to build at the next take: the
	// total of a step that outgrew the slab. Building it lazily means an
	// engine closed after its first step never pays for it.
	merge int
}

// take returns n zeroed elements.
func (b *bump[T]) take(n int) []T {
	if b.merge > 0 {
		b.slab, b.merge = make([]T, b.merge), 0
	}
	b.used += n
	if b.off+n > len(b.slab) {
		// Until the slab holds a whole step, what does not fit is an
		// ordinary heap allocation, so the first step costs what it did
		// before the arena and its memory is garbage like any other.
		c := make([]T, n)
		b.chunks = append(b.chunks, c)
		return c
	}
	s := b.slab[b.off : b.off+n : b.off+n]
	clear(s)
	b.off += n
	return s
}

// reset hands every element back, passing each released slab and chunk to
// poison when it is non-nil. A step that chained chunks leaves the next take
// to replace the slab with one that holds the whole step.
func (b *bump[T]) reset(poison func([]T)) {
	if poison != nil {
		poison(b.slab)
		for _, c := range b.chunks {
			poison(c)
		}
	}
	if len(b.chunks) > 0 {
		b.slab, b.chunks, b.merge = nil, nil, b.used
	}
	b.off, b.used = 0, 0
}
