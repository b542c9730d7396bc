package bf16

import (
	"math"

	"effnetscale/internal/parallel"
)

// BF16 is a bfloat16 value stored as the high 16 bits of a float32.
type BF16 uint16

// RoundMode selects how fp32→bf16 conversion handles the dropped mantissa
// bits.
type RoundMode int

const (
	// RoundNearestEven rounds to the nearest bfloat16, ties to even.
	// This matches TPU hardware behaviour and is the package default.
	RoundNearestEven RoundMode = iota
	// Truncate drops the low 16 bits. Cheaper but biased toward zero;
	// provided to let tests quantify the difference.
	Truncate
)

// FromFloat32 converts with round-to-nearest-even.
func FromFloat32(f float32) BF16 { return fromBits(math.Float32bits(f)) }

// FromFloat32Mode converts using the given rounding mode.
func FromFloat32Mode(f float32, mode RoundMode) BF16 {
	b := math.Float32bits(f)
	if mode == Truncate {
		return BF16(b >> 16)
	}
	return fromBits(b)
}

func fromBits(b uint32) BF16 {
	// NaN must stay NaN: if the truncated mantissa would be all zeros,
	// force a quiet-NaN bit.
	if b&0x7F800000 == 0x7F800000 && b&0x007FFFFF != 0 {
		return BF16((b >> 16) | 0x0040)
	}
	// Round to nearest even: add 0x7FFF + lsb-of-result before truncating.
	lsb := (b >> 16) & 1
	return BF16((b + 0x7FFF + lsb) >> 16)
}

// roundBits rounds a float32 bit pattern to bfloat16 precision while keeping
// it in 32-bit form (low 16 bits cleared). It is the round+widen composition
// of fromBits and BF16.Float32 without the narrowing shift, which is what the
// slice conversion loops want: one add, one mask, no 16-bit intermediates.
func roundBits(b uint32) uint32 {
	if b&0x7F800000 == 0x7F800000 && b&0x007FFFFF != 0 {
		return (b & 0xFFFF0000) | 0x00400000 // quiet NaN, same as fromBits
	}
	return (b + 0x7FFF + ((b >> 16) & 1)) & 0xFFFF0000
}

// Float32 widens a bfloat16 back to float32 (exact).
func (x BF16) Float32() float32 { return math.Float32frombits(uint32(x) << 16) }

// Round returns f rounded to bfloat16 precision and widened back to float32.
// This is the core primitive for emulating a bf16 compute unit.
func Round(f float32) float32 {
	return math.Float32frombits(roundBits(math.Float32bits(f)))
}

// RoundSlice rounds every element of src to bfloat16 precision, writing into
// dst (which may alias src). Lengths must match. The inner loop is unrolled
// four wide over the pure bit-level rounding formula; only NaNs take the
// branchy path. One worker, or a slice one chunk long, takes the loop
// directly, without the closure a fan-out needs.
func RoundSlice(dst, src []float32) {
	if len(dst) != len(src) {
		panic("bf16: RoundSlice length mismatch")
	}
	if parallel.MaxWorkers() == 1 || len(src) <= 2048 {
		roundRange(dst, src)
		return
	}
	parallel.ForChunked(len(src), 2048, func(lo, hi int) { roundRange(dst[lo:hi], src[lo:hi:hi]) })
}

func roundRange(d, s []float32) {
	i := 0
	for ; i+4 <= len(s); i += 4 {
		b0 := math.Float32bits(s[i])
		b1 := math.Float32bits(s[i+1])
		b2 := math.Float32bits(s[i+2])
		b3 := math.Float32bits(s[i+3])
		d[i] = math.Float32frombits(roundBits(b0))
		d[i+1] = math.Float32frombits(roundBits(b1))
		d[i+2] = math.Float32frombits(roundBits(b2))
		d[i+3] = math.Float32frombits(roundBits(b3))
	}
	for ; i < len(s); i++ {
		d[i] = math.Float32frombits(roundBits(math.Float32bits(s[i])))
	}
}

// PackSlice converts src to bfloat16 storage (round-to-nearest-even),
// writing into dst. Lengths must match. Useful for halving the memory
// footprint of checkpoint shards and activation stashes.
func PackSlice(dst []BF16, src []float32) {
	if len(dst) != len(src) {
		panic("bf16: PackSlice length mismatch")
	}
	parallel.ForChunked(len(src), 2048, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi:hi]
		for i, f := range s {
			d[i] = BF16(roundBits(math.Float32bits(f)) >> 16)
		}
	})
}

// UnpackSlice widens bfloat16 storage back to float32 (exact), writing into
// dst. Lengths must match.
func UnpackSlice(dst []float32, src []BF16) {
	if len(dst) != len(src) {
		panic("bf16: UnpackSlice length mismatch")
	}
	parallel.ForChunked(len(src), 2048, func(lo, hi int) {
		d, s := dst[lo:hi], src[lo:hi:hi]
		for i, x := range s {
			d[i] = math.Float32frombits(uint32(x) << 16)
		}
	})
}

// MaxRelError is the worst-case relative rounding error of bfloat16 for
// normal values: half a unit in the last place of a 7-bit mantissa (2^-8).
const MaxRelError = 1.0 / 256.0

// Policy describes which operator classes run in reduced precision, mirroring
// the paper's mixed-precision recipe.
type Policy struct {
	// ConvBF16 applies bfloat16 rounding to convolution inputs and weights
	// (the paper's configuration: "bfloat16 is used for convolutional
	// operations, while all other operations utilize fp32").
	ConvBF16 bool
}

// DefaultPolicy is the paper's §3.5 configuration.
var DefaultPolicy = Policy{ConvBF16: true}

// FP32Policy disables all reduced-precision behaviour.
var FP32Policy = Policy{}
