//go:build amd64

#include "textflag.h"

// AVX2 depthwise forward, eight channels of one sample per YMM register
// (depthwise_amd64.go). Lane l of every vector belongs to channel c0+l, so
// a lane performs exactly the float32 operations of the Go twin's loop for
// that channel: the accumulator starts at +0 and each tap is one VMULPS
// (input times weight) then one VADDPS (accumulator plus product) — no FMA,
// so the bits are the same.

// func depthwiseTableAVX2(out, x, w *float32, tab *int32, n, wd, kw int)
//
// For each of n outputs o, tab[4o:4o+4] = {first input vector, first weight
// vector, rows, columns} of its clipped window; x is the block's input
// [H·W][8] (wd vectors a row), w its weights [KH·KW][8] (kw vectors a row).
// out[o] = the window's taps summed row by row, columns ascending.
TEXT ·depthwiseTableAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ tab+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ wd+40(FP), R8
	MOVQ kw+48(FP), R9
	SHLQ $5, R8            // input row stride in bytes
	SHLQ $5, R9            // weight row stride in bytes

output:
	MOVLQSX 0(BX), R10
	MOVLQSX 4(BX), R11
	MOVLQSX 8(BX), R12     // rows
	MOVLQSX 12(BX), R13
	SHLQ $5, R10
	ADDQ SI, R10           // first tap's input
	SHLQ $5, R11
	ADDQ DX, R11           // first tap's weight
	SHLQ $5, R13           // a window row in bytes
	VXORPS Y0, Y0, Y0      // acc = +0
	TESTQ R12, R12
	JEQ   store

row:
	XORQ AX, AX

tap:
	VMOVUPS (R10)(AX*1), Y1
	VMULPS  (R11)(AX*1), Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, R13
	JLT  tap
	ADDQ R8, R10
	ADDQ R9, R11
	DECQ R12
	JNE  row

store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $16, BX
	DECQ CX
	JNE  output

	VZEROUPPER
	RET

// func transpose8AVX2(dst *float32, dstRow, dstStep int, src *float32, srcRow, srcStep, tiles int)
//
// Transposes tiles 8×8 tiles: tile t reads 8 rows of 8 floats, srcRow floats
// apart, at src + t·srcStep, and writes its columns as 8 rows, dstRow apart,
// at dst + t·dstStep. Pure data movement: every bit pattern survives.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstRow+8(FP), R8
	MOVQ dstStep+16(FP), R10
	MOVQ src+24(FP), SI
	MOVQ srcRow+32(FP), R9
	MOVQ srcStep+40(FP), R11
	MOVQ tiles+48(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R12   // 3 dst rows
	LEAQ (R9)(R9*2), R13   // 3 src rows

tile:
	LEAQ    (SI)(R9*4), AX
	VMOVUPS (SI), Y0       // row r holds a_r0 … a_r7
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (SI)(R9*2), Y2
	VMOVUPS (SI)(R13*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(R9*1), Y5
	VMOVUPS (AX)(R9*2), Y6
	VMOVUPS (AX)(R13*1), Y7

	VUNPCKLPS Y1, Y0, Y8   // a00 a10 a01 a11 | a04 a14 a05 a15
	VUNPCKHPS Y1, Y0, Y9   // a02 a12 a03 a13 | a06 a16 a07 a17
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0  // a00 a10 a20 a30 | a04 a14 a24 a34
	VSHUFPS $0xEE, Y10, Y8, Y1  // column 1 | column 5, rows 0-3
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4 // column 0 | column 4, rows 4-7
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8  // column 0
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12 // column 4
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	LEAQ    (DI)(R8*4), BX
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(R12*1)
	VMOVUPS Y12, (BX)
	VMOVUPS Y13, (BX)(R8*1)
	VMOVUPS Y14, (BX)(R8*2)
	VMOVUPS Y15, (BX)(R12*1)
	ADDQ R10, DI
	ADDQ R11, SI
	DECQ CX
	JNE  tile

	VZEROUPPER
	RET
