//go:build amd64

#include "textflag.h"

// AVX2 element-wise kernels, eight float32 lanes per iteration. Every
// function takes n > 0, a multiple of 8; the Go callers (elementwise.go)
// run ragged tails through the portable twin. Only VMULPS / VADDPS /
// VSUBPS / VDIVPS are used for arithmetic — no FMA — so each lane performs
// exactly the float32 operations of the Go twin and produces the same bits.

// CONST8 defines a 32-byte read-only vector holding eight copies of a
// 32-bit pattern, usable directly as a YMM memory operand.
#define CONST8(name, v) \
	DATA name<>+0(SB)/4, v; \
	DATA name<>+4(SB)/4, v; \
	DATA name<>+8(SB)/4, v; \
	DATA name<>+12(SB)/4, v; \
	DATA name<>+16(SB)/4, v; \
	DATA name<>+20(SB)/4, v; \
	DATA name<>+24(SB)/4, v; \
	DATA name<>+28(SB)/4, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST8(ewSign, $0x80000000)   // float32 sign bit
CONST8(ewOne, $0x3F800000)    // 1.0
CONST8(ewExpHi, $0x42B0C0A5)  // 88.3762626647949
CONST8(ewExpLo, $0xC2AEAC50)  // -87.33654475
CONST8(ewLog2e, $0x3FB8AA3B)  // 1.44269504088896341
CONST8(ewRound, $0x4B400000)  // 12582912 = 1.5 * 2^23
CONST8(ewLn2Hi, $0x3F318000)  // 0.693359375
CONST8(ewLn2Lo, $0xB95E8083)  // -2.12194440e-4
CONST8(ewC0, $0x39506967)     // 1.9875691500e-4
CONST8(ewC1, $0x3AB743CE)     // 1.3981999507e-3
CONST8(ewC2, $0x3C088908)     // 8.3334519073e-3
CONST8(ewC3, $0x3D2AA9C1)     // 4.1665795894e-2
CONST8(ewC4, $0x3E2AAAAA)     // 1.6666665459e-1
CONST8(ewC5, $0x3F000000)     // 5.0000001201e-1
CONST8(ewBias, $0x0000007F)   // float32 exponent bias, as int32

// SIGMOID8 computes Y1 = sigmoid(Y0) lane-wise; Y0 is preserved, Y2-Y4 are
// clobbered, and Y15 must hold ewOne. The steps mirror sigmoidLane in
// elementwise.go line for line. VMINPS/VMAXPS return their constant operand
// for a NaN lane, so NaN lanes compute finite garbage and are blended back
// to the input NaN at the end.
#define SIGMOID8 \
	VXORPS  ewSign<>(SB), Y0, Y1;  /* t = -x */ \
	VMINPS  ewExpHi<>(SB), Y1, Y1; \
	VMAXPS  ewExpLo<>(SB), Y1, Y1; \
	VMULPS  ewLog2e<>(SB), Y1, Y2; \
	VADDPS  ewRound<>(SB), Y2, Y2; \
	VSUBPS  ewRound<>(SB), Y2, Y2; /* k = roundeven(t*log2e) */ \
	VMULPS  ewLn2Hi<>(SB), Y2, Y3; \
	VSUBPS  Y3, Y1, Y1; \
	VMULPS  ewLn2Lo<>(SB), Y2, Y3; \
	VSUBPS  Y3, Y1, Y1;            /* r = t - k*ln2Hi - k*ln2Lo */ \
	VMULPS  ewC0<>(SB), Y1, Y3; \
	VADDPS  ewC1<>(SB), Y3, Y3; \
	VMULPS  Y1, Y3, Y3; \
	VADDPS  ewC2<>(SB), Y3, Y3; \
	VMULPS  Y1, Y3, Y3; \
	VADDPS  ewC3<>(SB), Y3, Y3; \
	VMULPS  Y1, Y3, Y3; \
	VADDPS  ewC4<>(SB), Y3, Y3; \
	VMULPS  Y1, Y3, Y3; \
	VADDPS  ewC5<>(SB), Y3, Y3;    /* p */ \
	VMULPS  Y1, Y1, Y4;            /* r*r */ \
	VMULPS  Y4, Y3, Y3; \
	VADDPS  Y1, Y3, Y3; \
	VADDPS  Y15, Y3, Y3;           /* e^r = p*r*r + r + 1 */ \
	VCVTTPS2DQ Y2, Y2; \
	VPADDD  ewBias<>(SB), Y2, Y2; \
	VPSLLD  $23, Y2, Y2;           /* 2^k, built in the exponent field */ \
	VMULPS  Y2, Y3, Y3;            /* e^t */ \
	VADDPS  Y15, Y3, Y3; \
	VDIVPS  Y3, Y15, Y1;           /* 1 / (1 + e^t) */ \
	VCMPPS  $3, Y0, Y0, Y2;        /* unordered: NaN lanes */ \
	VBLENDVPS Y2, Y0, Y1, Y1

// func sigmoidAVX2(dst, x *float32, n int)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVUPS ewOne<>(SB), Y15

sigloop:
	VMOVUPS (SI), Y0
	SIGMOID8
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  sigloop

	VZEROUPPER
	RET

// func swishAVX2(dst, sig, x *float32, n int)
//
// dst = x * sigmoid(x); sigmoid(x) is also stored to sig unless sig is nil.
TEXT ·swishAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ sig+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VMOVUPS ewOne<>(SB), Y15

swishloop:
	VMOVUPS (SI), Y0
	SIGMOID8
	TESTQ DX, DX
	JEQ   swishnosig
	VMOVUPS Y1, (DX)
	ADDQ  $32, DX

swishnosig:
	VMULPS  Y1, Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  swishloop

	VZEROUPPER
	RET

// func swishBackwardAVX2(dx, dy, sig, x *float32, n int)
//
// dx = (dy*s) * (1 + x*(1-s)).
TEXT ·swishBackwardAVX2(SB), NOSPLIT, $0-40
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), R8
	MOVQ sig+16(FP), DX
	MOVQ x+24(FP), SI
	MOVQ n+32(FP), CX
	VMOVUPS ewOne<>(SB), Y15

swishbwdloop:
	VMOVUPS (DX), Y1          // s
	VMULPS  (R8), Y1, Y2      // dy*s
	VSUBPS  Y1, Y15, Y3       // 1-s
	VMULPS  (SI), Y3, Y3      // x*(1-s)
	VADDPS  Y15, Y3, Y3       // 1 + x*(1-s)
	VMULPS  Y3, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  swishbwdloop

	VZEROUPPER
	RET

// func bnNormalizeAVX2(out, xhat, x *float32, n int, mean, invstd, gamma, beta float32)
//
// xhat = (x-mean)*invstd; out = gamma*xhat + beta.
TEXT ·bnNormalizeAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTSS mean+32(FP), Y12
	VBROADCASTSS invstd+36(FP), Y13
	VBROADCASTSS gamma+40(FP), Y14
	VBROADCASTSS beta+44(FP), Y15

bnnormloop:
	VMOVUPS (SI), Y0
	VSUBPS  Y12, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VMOVUPS Y0, (DX)
	VMULPS  Y14, Y0, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  bnnormloop

	VZEROUPPER
	RET

// func bnInferAVX2(out, x *float32, n int, mean, invstd, gamma, beta float32)
//
// out = (gamma*(x-mean))*invstd + beta.
TEXT ·bnInferAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS mean+24(FP), Y12
	VBROADCASTSS invstd+28(FP), Y13
	VBROADCASTSS gamma+32(FP), Y14
	VBROADCASTSS beta+36(FP), Y15

bninferloop:
	VMOVUPS (SI), Y0
	VSUBPS  Y12, Y0, Y0
	VMULPS  Y14, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  bninferloop

	VZEROUPPER
	RET

// func bnBackwardAVX2(dx, dy, xhat *float32, n int, k, m1, m2 float32)
//
// dx = k * ((dy-m1) - xhat*m2).
TEXT ·bnBackwardAVX2(SB), NOSPLIT, $0-44
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS k+32(FP), Y13
	VBROADCASTSS m1+36(FP), Y14
	VBROADCASTSS m2+40(FP), Y15

bnbwdloop:
	VMOVUPS (SI), Y0
	VSUBPS  Y14, Y0, Y0
	VMULPS  (DX), Y15, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  Y13, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  bnbwdloop

	VZEROUPPER
	RET
