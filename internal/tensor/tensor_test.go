package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"effnetscale/internal/parallel"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewShapeAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{1, 1, 1, 1}, 1},
	}
	for _, c := range cases {
		x := New(c.shape...)
		if x.Len() != c.want {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, x.Len(), c.want)
		}
		if x.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, x.Rank(), len(c.shape))
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At(1,2,3) = %v, want 7.5", got)
	}
	// Row-major offset check: index (1,2,3) = 1*12 + 2*4 + 3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatalf("row-major layout violated: data[23] = %v", x.Data()[23])
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share storage")
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped element order wrong: got %v", y.At(2, 1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(99, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Data(); got[0] != 5 || got[3] != 5 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := Sub(a, b).Data(); got[0] != -3 || got[3] != 3 {
		t.Errorf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 6 || got[2] != 6 {
		t.Errorf("Mul wrong: %v", got)
	}
	if got := Div(a, b).Data(); got[3] != 4 {
		t.Errorf("Div wrong: %v", got)
	}
}

func TestScaleAndAxpy(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3}, 3)
	s := Scale(a, 2)
	want := []float32{2, -4, 6}
	for i, v := range s.Data() {
		if v != want[i] {
			t.Fatalf("Scale[%d] = %v, want %v", i, v, want[i])
		}
	}
	dst := FromSlice([]float32{1, 1, 1}, 3)
	AxpyInto(dst, 3, a)
	want = []float32{4, -5, 10}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSumDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if got := a.Sum(); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
	if got := a.Norm(); !almostEqual(got, 5, 1e-7) {
		t.Errorf("Norm = %v, want 5", got)
	}
	b := FromSlice([]float32{1, 2}, 2)
	if got := Dot(a, b); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
}

func TestReductionsAddInIndexOrder(t *testing.T) {
	// Magnitudes spanning 2^±20 make float64 sums depend on their order, so
	// any chunked or reordered reduction fails here at some worker bound.
	rng := rand.New(rand.NewSource(3))
	a, b := New(10007), New(10007)
	for i := range a.Data() {
		a.Data()[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20))
		b.Data()[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20))
	}
	var sum, dot, sq float64
	for i, v := range a.Data() {
		sum += float64(v)
		dot += float64(float64(v) * float64(b.Data()[i]))
		sq += float64(float64(v) * float64(v))
	}
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(1))
	for _, workers := range []int{1, 2, 4} {
		parallel.SetMaxWorkers(workers)
		if got := a.Sum(); math.Float64bits(got) != math.Float64bits(sum) {
			t.Errorf("workers %d: Sum = %v, want %v", workers, got, sum)
		}
		if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(dot) {
			t.Errorf("workers %d: Dot = %v, want %v", workers, got, dot)
		}
		if got := a.Norm(); math.Float64bits(got) != math.Float64bits(math.Sqrt(sq)) {
			t.Errorf("workers %d: Norm = %v, want %v", workers, got, math.Sqrt(sq))
		}
	}
}

func TestAddCommutesQuick(t *testing.T) {
	f := func(vals [8]float32) bool {
		a := FromSlice(append([]float32(nil), vals[:4]...), 4)
		b := FromSlice(append([]float32(nil), vals[4:]...), 4)
		ab, ba := Add(a, b), Add(b, a)
		for i := range ab.Data() {
			x, y := ab.Data()[i], ba.Data()[i]
			if x != y && !(math.IsNaN(float64(x)) && math.IsNaN(float64(y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleDistributesOverAddQuick(t *testing.T) {
	f := func(vals [8]int8, s int8) bool {
		// Use small integers so float arithmetic is exact.
		av := make([]float32, 4)
		bv := make([]float32, 4)
		for i := 0; i < 4; i++ {
			av[i] = float32(vals[i])
			bv[i] = float32(vals[i+4])
		}
		a, b := FromSlice(av, 4), FromSlice(bv, 4)
		lhs := Scale(Add(a, b), float32(s))
		rhs := Add(Scale(a, float32(s)), Scale(b, float32(s)))
		for i := range lhs.Data() {
			if lhs.Data()[i] != rhs.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMatMulAgainstNaive checks small fixed shapes against the shared
// float64 triple-loop oracle (oracle_test.go); the broader shape sweeps
// and both-kernel-path runs live in TestMatMulOracleSweep.
func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 17, 9}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		want, mag := oracleGEMM(a.Data(), b.Data(), k, n, false, false, m, n, k)
		assertOracle(t, fmt.Sprintf("MatMul(%dx%dx%d)", m, k, n), MatMul(a, b).Data(), want, mag, k)
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 5, 4, 6
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	want, mag := oracleGEMM(a.Data(), b.Data(), k, n, false, false, m, n, k)

	// MatMulTA(aT, b) must equal a@b.
	aT := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT.Set(a.At(i, p), p, i)
		}
	}
	assertOracle(t, "MatMulTA", MatMulTA(aT, b).Data(), want, mag, k)
	// MatMulTB(a, bT) must equal a@b.
	bT := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT.Set(b.At(p, j), j, p)
		}
	}
	assertOracle(t, "MatMulTB", MatMulTB(a, bT).Data(), want, mag, k)
}

func TestMatMulIntoAccumulate(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2) // identity
	b := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	dst := FromSlice([]float32{10, 10, 10, 10}, 2, 2)
	MatMulInto(dst, a, b, true)
	want := []float32{11, 12, 13, 14}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("accumulate MatMulInto[%d] = %v, want %v", i, v, want[i])
		}
	}
	MatMulInto(dst, a, b, false)
	for i, v := range dst.Data() {
		if v != b.Data()[i] {
			t.Fatalf("overwrite MatMulInto[%d] = %v, want %v", i, v, b.Data()[i])
		}
	}
}

func TestChannelBroadcastOps(t *testing.T) {
	// x: [1, 2, 2, 2]
	x := FromSlice([]float32{
		1, 2, 3, 4, // channel 0
		5, 6, 7, 8, // channel 1
	}, 1, 2, 2, 2)
	b := FromSlice([]float32{10, 20}, 2)
	y := AddChannel(x, b)
	if y.At(0, 0, 0, 0) != 11 || y.At(0, 1, 1, 1) != 28 {
		t.Fatalf("AddChannel wrong: %v", y.Data())
	}
	s := FromSlice([]float32{2, 3}, 1, 2)
	z := MulChannelNC(x, s)
	if z.At(0, 0, 1, 1) != 8 || z.At(0, 1, 0, 0) != 15 {
		t.Fatalf("MulChannelNC wrong: %v", z.Data())
	}
	sums := SumChannelNC(x)
	if sums.At(0, 0) != 10 || sums.At(0, 1) != 26 {
		t.Fatalf("SumChannelNC wrong: %v", sums.Data())
	}
}
