package tensor

import (
	"math"
	"testing"
)

// arenaStep hands out the tensors of one pretend training step: a spread of
// sizes, including ones larger than a chunk, as a model's activations are.
func arenaStep(a *Arena) []*Tensor {
	ts := make([]*Tensor, 0, 8)
	for i, shape := range [][]int{{3}, {4, 8, 16, 16}, {1}, {4, 8}, {2, 3, 40, 40}, {7, 5}, {64, 64}} {
		t := a.New(shape...)
		t.Fill(float32(i + 1))
		ts = append(ts, t)
	}
	return ts
}

func TestArenaResetReusesTheSlab(t *testing.T) {
	a := NewArena()
	arenaStep(a)
	a.Reset()
	first := arenaStep(a)
	a.Reset()
	second := arenaStep(a)
	for i := range first {
		if &first[i].Data()[0] != &second[i].Data()[0] || first[i] != second[i] {
			t.Fatalf("tensor %d moved between warm steps", i)
		}
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(10, func() { arenaStep(a); a.Reset() }); allocs > 1 {
		// One: the slice arenaStep collects its tensors in.
		t.Fatalf("a warm step allocated %v times, want only its result slice", allocs)
	}
}

func TestArenaMergesFirstStepGrowthIntoOneSlab(t *testing.T) {
	a := NewArena()
	arenaStep(a)
	if len(a.data.chunks) < 2 {
		t.Fatalf("the first step chained %d chunks; the test needs it to outgrow one", len(a.data.chunks))
	}
	used := a.data.used
	a.Reset()
	arenaStep(a)
	for name, chunks := range map[string]int{"data": len(a.data.chunks), "shapes": len(a.shapes.chunks), "headers": len(a.heads.chunks)} {
		if chunks != 0 {
			t.Fatalf("second step chained %d %s chunks; the slab should hold it", chunks, name)
		}
	}
	if len(a.data.slab) != used || a.data.off != used {
		t.Fatalf("merged slab holds %d floats and the step took %d, want both %d", len(a.data.slab), a.data.off, used)
	}
	for _, ts := range arenaStep(NewArena()) {
		if cap(ts.Data()) != ts.Len() {
			t.Fatalf("hand-out of %d floats has capacity %d: an append would grow into its neighbour", ts.Len(), cap(ts.Data()))
		}
	}
}

func TestArenaHandOutsAreZeroed(t *testing.T) {
	a := NewArena()
	arenaStep(a)
	a.Reset()
	old := arenaStep(a) // warm: these fill the slab the next step reuses
	a.Reset()
	// Under go test the released data reads NaN: a tensor used after its
	// step poisons whatever it feeds.
	for i, o := range old {
		if v := o.Data()[0]; !math.IsNaN(float64(v)) {
			t.Fatalf("released tensor %d reads %v, want NaN", i, v)
		}
	}
	for i, o := range old {
		fresh := a.New(o.Shape()...)
		if !SameShape(fresh, o) || &fresh.Data()[0] != &o.Data()[0] {
			t.Fatalf("hand-out %d: shape %v at a new address, want %v over the released memory", i, fresh.Shape(), o.Shape())
		}
		for j, v := range fresh.Data() {
			if v != 0 {
				t.Fatalf("hand-out %d element %d = %v, want 0", i, j, v)
			}
		}
	}
}

func TestNilArenaIsTheHeap(t *testing.T) {
	var a *Arena
	x, y := a.New(2, 3), a.New(2, 3)
	if &x.Data()[0] == &y.Data()[0] || x.Len() != 6 || x.Rank() != 2 || x.Dim(1) != 3 {
		t.Fatalf("nil arena: got %v and %v sharing storage or misshapen", x, y)
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("nil arena hand-out not zeroed: %v", x.Data())
		}
	}
	heap := testing.AllocsPerRun(10, func() { sink = New(4, 5) })
	if got := testing.AllocsPerRun(10, func() { sink = a.New(4, 5) }); got != heap {
		t.Fatalf("nil arena New: %v allocations, tensor.New makes %v", got, heap)
	}
}
