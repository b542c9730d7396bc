package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"effnetscale/internal/parallel"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty scalar-less tensor; use New or the factory
// helpers to construct usable tensors.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. Dimensions must be
// strictly positive; New panics otherwise (shape errors are programming
// errors in this engine, mirroring slice-bounds semantics).
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), dims(shape), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn fills a new tensor with N(0, stddev) samples from rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * stddev)
	}
	return t
}

// Uniform fills a new tensor with samples in [lo, hi) from rng.
func Uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// dims copies a variadic shape or index for a panic message. Formatting the
// copy keeps the argument itself from escaping, so a caller's dimensions stay
// on its stack instead of costing an allocation per call.
func dims(s []int) []int { return append([]int(nil), s...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", dims(shape)))
		}
		n *= d
	}
	return n
}

// Rebind re-points t at data, viewed in shape, without copying or clearing
// anything: the hand-out of a workspace that lays its buffers out once, for
// kernels that overwrite all of what they are handed. t reuses its own shape
// storage, so a warm Rebind allocates nothing.
func (t *Tensor) Rebind(data []float32, shape ...int) {
	if n := checkShape(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: Rebind data length %d does not match shape %v (%d elements)", len(data), dims(shape), n))
	}
	t.shape = append(t.shape[:0], shape...)
	t.data = data
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", dims(idx), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a tensor sharing t's data with a new shape of equal element
// count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), dims(shape), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

// --- Element-wise kernels -------------------------------------------------
//
// Each kernel takes its plain serial loop when there is one worker and only
// otherwise builds the closure parallel.ForChunked needs: the closure is a
// heap allocation (and an indirect call per chunk or row) that a one-proc
// step or request would pay on every call.

// binary applies op element-wise into dst, which may alias a or b.
func binary(op string, dst, a, b *Tensor, f func(x, y float32) float32) {
	assertSameShape(op, a, b)
	assertSameShape(op, dst, a)
	ad, bd, od := a.data, b.data, dst.data
	if parallel.MaxWorkers() == 1 {
		for i := range od {
			od[i] = f(ad[i], bd[i])
		}
		return
	}
	parallel.ForChunked(len(ad), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(ad[i], bd[i])
		}
	})
}

func add(x, y float32) float32 { return x + y }
func sub(x, y float32) float32 { return x - y }
func mul(x, y float32) float32 { return x * y }
func div(x, y float32) float32 { return x / y }

// binaryNew applies op element-wise into a fresh tensor.
func binaryNew(op string, a, b *Tensor, f func(x, y float32) float32) *Tensor {
	out := New(a.shape...)
	binary(op, out, a, b, f)
	return out
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor { return binaryNew("Add", a, b, add) }

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor { return binaryNew("Sub", a, b, sub) }

// SubInto writes a - b into dst, which may alias a or b.
func SubInto(dst, a, b *Tensor) { binary("SubInto", dst, a, b, sub) }

// Mul returns a * b element-wise (Hadamard product).
func Mul(a, b *Tensor) *Tensor { return binaryNew("Mul", a, b, mul) }

// MulInto writes a * b into dst, which may alias a or b.
func MulInto(dst, a, b *Tensor) { binary("MulInto", dst, a, b, mul) }

// Div returns a / b element-wise.
func Div(a, b *Tensor) *Tensor { return binaryNew("Div", a, b, div) }

// AddInto accumulates src into dst (dst += src).
func AddInto(dst, src *Tensor) {
	assertSameShape("AddInto", dst, src)
	dd, sd := dst.data, src.data
	if parallel.MaxWorkers() == 1 {
		for i := range dd {
			dd[i] += sd[i]
		}
		return
	}
	parallel.ForChunked(len(dd), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] += sd[i]
		}
	})
}

// Scale returns a*s element-wise.
func Scale(a *Tensor, s float32) *Tensor {
	out := a.Clone()
	out.ScaleInPlace(s)
	return out
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	d := t.data
	if parallel.MaxWorkers() == 1 {
		for i := range d {
			d[i] *= s
		}
		return
	}
	parallel.ForChunked(len(d), 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] *= s
		}
	})
}

// AxpyInto computes dst += alpha*src.
func AxpyInto(dst *Tensor, alpha float32, src *Tensor) {
	assertSameShape("AxpyInto", dst, src)
	dd, sd := dst.data, src.data
	if parallel.MaxWorkers() == 1 {
		for i := range dd {
			dd[i] += alpha * sd[i]
		}
		return
	}
	parallel.ForChunked(len(dd), 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dd[i] += alpha * sd[i]
		}
	})
}

// Apply returns f applied element-wise.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	ad, od := a.data, out.data
	if parallel.MaxWorkers() == 1 {
		for i := range od {
			od[i] = f(ad[i])
		}
		return out
	}
	parallel.ForChunked(len(ad), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = f(ad[i])
		}
	})
	return out
}

// The float64 reductions below add in index order on the calling goroutine,
// so their bits depend on neither the worker bound nor the host: an
// optimizer's trust ratio (LARS) is the same at any GOMAXPROCS. The
// conversions round each product before the add, which keeps a compiler
// from fusing the two.

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product of a and b accumulated in float64.
func Dot(a, b *Tensor) float64 {
	assertSameShape("Dot", a, b)
	var s float64
	for i, v := range a.data {
		s += float64(float64(v) * float64(b.data[i]))
	}
	return s
}

// Norm returns the Euclidean norm of t accumulated in float64.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for empty data.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// --- Broadcast helpers for NCHW activations --------------------------------

// AddChannel adds per-channel bias b (shape [C]) to x (shape [N,C,H,W]).
func AddChannel(x, b *Tensor) *Tensor {
	out := New(x.shape...)
	AddChannelInto(out, x, b)
	return out
}

// AddChannelInto is AddChannel writing into dst, which must have x's shape
// and may be x itself.
func AddChannelInto(dst, x, b *Tensor) {
	n, c, h, w := x.Dim4()
	if b.Rank() != 1 || b.Dim(0) != c {
		panic(fmt.Sprintf("tensor: AddChannel bias shape %v does not match channels %d", b.shape, c))
	}
	assertSameShape("AddChannelInto", dst, x)
	hw := h * w
	if parallel.MaxWorkers() == 1 {
		for nc := 0; nc < n*c; nc++ {
			addChannelRow(dst.data, x.data, b.data[nc%c], nc*hw, hw)
		}
		return
	}
	parallel.For(n*c, func(nc int) {
		addChannelRow(dst.data, x.data, b.data[nc%c], nc*hw, hw)
	})
}

func addChannelRow(out, x []float32, bias float32, base, hw int) {
	for i := base; i < base+hw; i++ {
		out[i] = x[i] + bias
	}
}

// MulChannelNC multiplies x (shape [N,C,H,W]) by per-sample-per-channel scale
// s (shape [N,C]), broadcasting over H and W. Used by squeeze-excitation.
func MulChannelNC(x, s *Tensor) *Tensor {
	out := New(x.shape...)
	MulChannelNCInto(out, x, s)
	return out
}

// MulChannelNCInto is MulChannelNC writing into dst, which must have x's
// shape and may be x itself.
func MulChannelNCInto(dst, x, s *Tensor) {
	n, c, h, w := x.Dim4()
	if s.Rank() != 2 || s.Dim(0) != n || s.Dim(1) != c {
		panic(fmt.Sprintf("tensor: MulChannelNC scale shape %v does not match [%d,%d]", s.shape, n, c))
	}
	assertSameShape("MulChannelNCInto", dst, x)
	hw := h * w
	if parallel.MaxWorkers() == 1 {
		for nc := 0; nc < n*c; nc++ {
			mulChannelRow(dst.data, x.data, s.data[nc], nc*hw, hw)
		}
		return
	}
	parallel.For(n*c, func(nc int) {
		mulChannelRow(dst.data, x.data, s.data[nc], nc*hw, hw)
	})
}

func mulChannelRow(out, x []float32, scale float32, base, hw int) {
	for i := base; i < base+hw; i++ {
		out[i] = x[i] * scale
	}
}

// SumChannelNC reduces x (shape [N,C,H,W]) over H and W into shape [N,C].
func SumChannelNC(x *Tensor) *Tensor {
	n, c, _, _ := x.Dim4()
	out := New(n, c)
	SumChannelNCInto(out, x)
	return out
}

// SumChannelNCInto is SumChannelNC writing into dst, which must have n·c
// elements.
func SumChannelNCInto(dst, x *Tensor) {
	n, c, h, w := x.Dim4()
	if len(dst.data) != n*c {
		panic(fmt.Sprintf("tensor: SumChannelNCInto dst shape %v, want [%d,%d]", dst.shape, n, c))
	}
	hw := h * w
	if parallel.MaxWorkers() == 1 {
		for nc := 0; nc < n*c; nc++ {
			dst.data[nc] = sumRow(x.data[nc*hw : (nc+1)*hw])
		}
		return
	}
	parallel.For(n*c, func(nc int) {
		dst.data[nc] = sumRow(x.data[nc*hw : (nc+1)*hw])
	})
}

// sumRow sums one (sample, channel) row in float64.
func sumRow(row []float32) float32 {
	var s float64
	for _, v := range row {
		s += float64(v)
	}
	return float32(s)
}

// Dim4 returns the four dimensions of an NCHW tensor, panicking if rank != 4.
func (t *Tensor) Dim4() (n, c, h, w int) {
	if len(t.shape) != 4 {
		panic(fmt.Sprintf("tensor: expected rank-4 NCHW tensor, got shape %v", t.shape))
	}
	return t.shape[0], t.shape[1], t.shape[2], t.shape[3]
}
