//go:build amd64 && !purego

#include "textflag.h"

// AVX2 fast paths for the SoA statevector kernels. Contract: every
// function performs exactly the float64 operations of its scalar body in
// kernels.go, lane by lane — VMULPD/VADDPD/VSUBPD are elementwise IEEE
// operations, so a 4-lane vector step is bit-identical to 4 scalar
// steps. No FMA is used anywhere: fusing a*b+c would change rounding and
// break the bit-identity contract with the frozen complex128 loops.
//
// Register conventions shared by the 4x4 kernels below:
//   BX  — pointer to the 32-float matrix (row-major, re/im interleaved;
//         row r column c real part at byte offset r*64 + c*16)
//   R8  — current float index into the streams
//   Y8, Y9   — accumulator (real, imag) for the row being computed
//   Y10-Y13  — temporaries (matrix broadcasts, products)

// TERM0 starts a row accumulation with matrix-column term
// m[row][0] * in: acc = (mr*inR - mi*inI, mr*inI + mi*inR).
// MR/MI are byte offsets of the coefficient in the matrix, INR/INI the
// Y registers holding the input stream.
#define TERM0(MR, MI, INR, INI) \
	VBROADCASTSD MR(BX), Y10 \
	VBROADCASTSD MI(BX), Y11 \
	VMULPD INR, Y10, Y8 \
	VMULPD INI, Y11, Y12 \
	VSUBPD Y12, Y8, Y8 \
	VMULPD INI, Y10, Y9 \
	VMULPD INR, Y11, Y12 \
	VADDPD Y12, Y9, Y9

// TERMN adds matrix-column term m[row][c] * in to the accumulator,
// keeping the frozen loop's left-associated summation order.
#define TERMN(MR, MI, INR, INI) \
	VBROADCASTSD MR(BX), Y10 \
	VBROADCASTSD MI(BX), Y11 \
	VMULPD INR, Y10, Y12 \
	VMULPD INI, Y11, Y13 \
	VSUBPD Y13, Y12, Y12 \
	VADDPD Y12, Y8, Y8 \
	VMULPD INI, Y10, Y12 \
	VMULPD INR, Y11, Y13 \
	VADDPD Y13, Y12, Y12 \
	VADDPD Y12, Y9, Y9

// DEINT loads 8 interleaved floats [e0 o0 e1 o1 e2 o2 e3 o3] from
// PTR+R8*8 and splits them into even lanes EV and odd lanes OD.
#define DEINT(PTR, EV, OD) \
	VMOVUPD (PTR)(R8*8), Y10 \
	VMOVUPD 32(PTR)(R8*8), Y11 \
	VPERM2F128 $0x20, Y11, Y10, Y12 \
	VPERM2F128 $0x31, Y11, Y10, Y13 \
	VUNPCKLPD Y13, Y12, EV \
	VUNPCKHPD Y13, Y12, OD

// REPACK interleaves even lanes EV and odd lanes OD back into
// [e0 o0 e1 o1 e2 o2 e3 o3] and stores them at PTR+R8*8.
#define REPACK(EV, OD, PTR) \
	VUNPCKLPD OD, EV, Y10 \
	VUNPCKHPD OD, EV, Y11 \
	VPERM2F128 $0x20, Y11, Y10, Y12 \
	VPERM2F128 $0x31, Y11, Y10, Y13 \
	VMOVUPD Y12, (PTR)(R8*8) \
	VMOVUPD Y13, 32(PTR)(R8*8)

// func cpuHasAVX2() bool
// CPUID feature bits plus XGETBV confirmation that the OS saves YMM
// state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27), BX // OSXSAVE
	JZ   novx
	MOVL CX, BX
	ANDL $(1<<28), BX // AVX
	JZ   novx
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state saved by the OS
	CMPL AX, $6
	JNE  novx
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX // AVX2
	JZ   novx
	MOVB $1, ret+0(FP)
	RET
novx:
	MOVB $0, ret+0(FP)
	RET

// func mul1QAVX(loR, loI, hiR, hiI *float64, n int, m *[8]float64)
// General 2x2 kernel over contiguous paired runs; n is a multiple of 4.
TEXT ·mul1QAVX(SB), NOSPLIT, $0-48
	MOVQ loR+0(FP), DI
	MOVQ loI+8(FP), SI
	MOVQ hiR+16(FP), DX
	MOVQ hiI+24(FP), CX
	MOVQ n+32(FP), AX
	MOVQ m+40(FP), BX
	VBROADCASTSD 0(BX), Y8   // m00r
	VBROADCASTSD 8(BX), Y9   // m00i
	VBROADCASTSD 16(BX), Y10 // m01r
	VBROADCASTSD 24(BX), Y11 // m01i
	VBROADCASTSD 32(BX), Y12 // m10r
	VBROADCASTSD 40(BX), Y13 // m10i
	VBROADCASTSD 48(BX), Y14 // m11r
	VBROADCASTSD 56(BX), Y15 // m11i
	XORQ R8, R8
m1loop:
	CMPQ R8, AX
	JGE  m1done
	VMOVUPD (DI)(R8*8), Y0 // a0r
	VMOVUPD (SI)(R8*8), Y1 // a0i
	VMOVUPD (DX)(R8*8), Y2 // a1r
	VMOVUPD (CX)(R8*8), Y3 // a1i

	// loR' = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
	VMULPD Y0, Y8, Y4
	VMULPD Y1, Y9, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y2, Y10, Y5
	VMULPD Y3, Y11, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R8*8)

	// loI' = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
	VMULPD Y1, Y8, Y4
	VMULPD Y0, Y9, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y3, Y10, Y5
	VMULPD Y2, Y11, Y6
	VADDPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (SI)(R8*8)

	// hiR' = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
	VMULPD Y0, Y12, Y4
	VMULPD Y1, Y13, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y2, Y14, Y5
	VMULPD Y3, Y15, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DX)(R8*8)

	// hiI' = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
	VMULPD Y1, Y12, Y4
	VMULPD Y0, Y13, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y3, Y14, Y5
	VMULPD Y2, Y15, Y6
	VADDPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (CX)(R8*8)

	ADDQ $4, R8
	JMP  m1loop
m1done:
	VZEROUPPER
	RET

// func cscaleAVX(re, im *float64, n int, cr, ci float64)
// Complex scalar multiply of a contiguous run; n is a multiple of 4.
TEXT ·cscaleAVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	VBROADCASTSD cr+24(FP), Y8
	VBROADCASTSD ci+32(FP), Y9
	XORQ R8, R8
csloop:
	CMPQ R8, AX
	JGE  csdone
	VMOVUPD (DI)(R8*8), Y0
	VMOVUPD (SI)(R8*8), Y1

	// re' = ar*cr - ai*ci
	VMULPD Y0, Y8, Y2
	VMULPD Y1, Y9, Y3
	VSUBPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(R8*8)

	// im' = ar*ci + ai*cr
	VMULPD Y0, Y9, Y2
	VMULPD Y1, Y8, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (SI)(R8*8)

	ADDQ $4, R8
	JMP  csloop
csdone:
	VZEROUPPER
	RET

// func cscaleMoveAVX(dstR, dstI, srcR, srcI *float64, n int, cr, ci float64)
// cscaleAVX from a source run into a destination run at or below it;
// n is a multiple of 4.
TEXT ·cscaleMoveAVX(SB), NOSPLIT, $0-56
	MOVQ dstR+0(FP), DI
	MOVQ dstI+8(FP), SI
	MOVQ srcR+16(FP), DX
	MOVQ srcI+24(FP), CX
	MOVQ n+32(FP), AX
	VBROADCASTSD cr+40(FP), Y8
	VBROADCASTSD ci+48(FP), Y9
	XORQ R8, R8
cmloop:
	CMPQ R8, AX
	JGE  cmdone
	VMOVUPD (DX)(R8*8), Y0
	VMOVUPD (CX)(R8*8), Y1

	// re' = ar*cr - ai*ci
	VMULPD Y0, Y8, Y2
	VMULPD Y1, Y9, Y3
	VSUBPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(R8*8)

	// im' = ar*ci + ai*cr
	VMULPD Y0, Y9, Y2
	VMULPD Y1, Y8, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (SI)(R8*8)

	ADDQ $4, R8
	JMP  cmloop
cmdone:
	VZEROUPPER
	RET

// func cscalePatAVX(re, im *float64, n int, cr, ci *[4]float64)
// Complex multiply by a 4-lane coefficient pattern (period 2 or 4);
// n is a multiple of 4 so lane k always sees pattern index k.
TEXT ·cscalePatAVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ cr+24(FP), BX
	MOVQ ci+32(FP), CX
	VMOVUPD (BX), Y8
	VMOVUPD (CX), Y9
	XORQ R8, R8
cploop:
	CMPQ R8, AX
	JGE  cpdone
	VMOVUPD (DI)(R8*8), Y0
	VMOVUPD (SI)(R8*8), Y1

	// re' = ar*dr - ai*di
	VMULPD Y0, Y8, Y2
	VMULPD Y1, Y9, Y3
	VSUBPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(R8*8)

	// im' = ar*di + ai*dr
	VMULPD Y0, Y9, Y2
	VMULPD Y1, Y8, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (SI)(R8*8)

	ADDQ $4, R8
	JMP  cploop
cpdone:
	VZEROUPPER
	RET

// func antiAVX(loR, loI, hiR, hiI *float64, n int, c *[4]float64)
// Anti-diagonal kernel (scaled swap) over contiguous paired runs;
// n is a multiple of 4. c holds a01r, a01i, a10r, a10i.
TEXT ·antiAVX(SB), NOSPLIT, $0-48
	MOVQ loR+0(FP), DI
	MOVQ loI+8(FP), SI
	MOVQ hiR+16(FP), DX
	MOVQ hiI+24(FP), CX
	MOVQ n+32(FP), AX
	MOVQ c+40(FP), BX
	VBROADCASTSD 0(BX), Y8   // a01r
	VBROADCASTSD 8(BX), Y9   // a01i
	VBROADCASTSD 16(BX), Y10 // a10r
	VBROADCASTSD 24(BX), Y11 // a10i
	XORQ R8, R8
adloop:
	CMPQ R8, AX
	JGE  addone
	VMOVUPD (DI)(R8*8), Y0 // a0r
	VMOVUPD (SI)(R8*8), Y1 // a0i
	VMOVUPD (DX)(R8*8), Y2 // a1r
	VMOVUPD (CX)(R8*8), Y3 // a1i

	// loR' = a01r*a1r - a01i*a1i
	VMULPD Y2, Y8, Y4
	VMULPD Y3, Y9, Y5
	VSUBPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R8*8)

	// loI' = a01r*a1i + a01i*a1r
	VMULPD Y3, Y8, Y4
	VMULPD Y2, Y9, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (SI)(R8*8)

	// hiR' = a10r*a0r - a10i*a0i
	VMULPD Y0, Y10, Y4
	VMULPD Y1, Y11, Y5
	VSUBPD Y5, Y4, Y4
	VMOVUPD Y4, (DX)(R8*8)

	// hiI' = a10r*a0i + a10i*a0r
	VMULPD Y1, Y10, Y4
	VMULPD Y0, Y11, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (CX)(R8*8)

	ADDQ $4, R8
	JMP  adloop
addone:
	VZEROUPPER
	RET

// func mul2QAVX(r0, i0, r1, i1, r2, i2, r3, i3 *float64, n int, mm *[32]float64)
// General 4x4 kernel over four contiguous role streams (run length
// lo >= 4); n is a multiple of 4. Rows accumulate in matrix-column
// order via TERM0/TERMN, matching the frozen loop's summation order.
TEXT ·mul2QAVX(SB), NOSPLIT, $0-80
	MOVQ r0+0(FP), DI
	MOVQ i0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ i1+24(FP), CX
	MOVQ r2+32(FP), R9
	MOVQ i2+40(FP), R10
	MOVQ r3+48(FP), R11
	MOVQ i3+56(FP), R12
	MOVQ n+64(FP), AX
	MOVQ mm+72(FP), BX
	XORQ R8, R8
m2loop:
	CMPQ R8, AX
	JGE  m2done
	VMOVUPD (DI)(R8*8), Y0
	VMOVUPD (SI)(R8*8), Y1
	VMOVUPD (DX)(R8*8), Y2
	VMOVUPD (CX)(R8*8), Y3
	VMOVUPD (R9)(R8*8), Y4
	VMOVUPD (R10)(R8*8), Y5
	VMOVUPD (R11)(R8*8), Y6
	VMOVUPD (R12)(R8*8), Y7

	// row 0
	TERM0(0, 8, Y0, Y1)
	TERMN(16, 24, Y2, Y3)
	TERMN(32, 40, Y4, Y5)
	TERMN(48, 56, Y6, Y7)
	VMOVUPD Y8, (DI)(R8*8)
	VMOVUPD Y9, (SI)(R8*8)

	// row 1
	TERM0(64, 72, Y0, Y1)
	TERMN(80, 88, Y2, Y3)
	TERMN(96, 104, Y4, Y5)
	TERMN(112, 120, Y6, Y7)
	VMOVUPD Y8, (DX)(R8*8)
	VMOVUPD Y9, (CX)(R8*8)

	// row 2
	TERM0(128, 136, Y0, Y1)
	TERMN(144, 152, Y2, Y3)
	TERMN(160, 168, Y4, Y5)
	TERMN(176, 184, Y6, Y7)
	VMOVUPD Y8, (R9)(R8*8)
	VMOVUPD Y9, (R10)(R8*8)

	// row 3
	TERM0(192, 200, Y0, Y1)
	TERMN(208, 216, Y2, Y3)
	TERMN(224, 232, Y4, Y5)
	TERMN(240, 248, Y6, Y7)
	VMOVUPD Y8, (R11)(R8*8)
	VMOVUPD Y9, (R12)(R8*8)

	ADDQ $4, R8
	JMP  m2loop
m2done:
	VZEROUPPER
	RET

// func mul2QPairsB0AVX(loR, loI, hiR, hiI *float64, n int, mm *[32]float64)
// General 4x4 kernel for the lo == 1 layout with q0 (matrix low bit) at
// qubit 0: each half interleaves two role streams at stride 2. Streams
// after DEINT: Y0/Y1 lowEven, Y2/Y3 lowOdd, Y4/Y5 highEven, Y6/Y7
// highOdd; matrix-basis roles are (lowEven, lowOdd, highEven, highOdd).
// n (floats per half) is a multiple of 8.
TEXT ·mul2QPairsB0AVX(SB), NOSPLIT, $0-48
	MOVQ loR+0(FP), DI
	MOVQ loI+8(FP), SI
	MOVQ hiR+16(FP), DX
	MOVQ hiI+24(FP), CX
	MOVQ n+32(FP), AX
	MOVQ mm+40(FP), BX
	XORQ R8, R8
p0loop:
	CMPQ R8, AX
	JGE  p0done
	DEINT(DI, Y0, Y2)
	DEINT(SI, Y1, Y3)
	DEINT(DX, Y4, Y6)
	DEINT(CX, Y5, Y7)

	// row 0 -> lowEven', parked in Y14/Y15
	TERM0(0, 8, Y0, Y1)
	TERMN(16, 24, Y2, Y3)
	TERMN(32, 40, Y4, Y5)
	TERMN(48, 56, Y6, Y7)
	VMOVAPD Y8, Y14
	VMOVAPD Y9, Y15

	// row 1 -> lowOdd'
	TERM0(64, 72, Y0, Y1)
	TERMN(80, 88, Y2, Y3)
	TERMN(96, 104, Y4, Y5)
	TERMN(112, 120, Y6, Y7)
	REPACK(Y14, Y8, DI)
	REPACK(Y15, Y9, SI)

	// row 2 -> highEven', parked in Y14/Y15
	TERM0(128, 136, Y0, Y1)
	TERMN(144, 152, Y2, Y3)
	TERMN(160, 168, Y4, Y5)
	TERMN(176, 184, Y6, Y7)
	VMOVAPD Y8, Y14
	VMOVAPD Y9, Y15

	// row 3 -> highOdd'
	TERM0(192, 200, Y0, Y1)
	TERMN(208, 216, Y2, Y3)
	TERMN(224, 232, Y4, Y5)
	TERMN(240, 248, Y6, Y7)
	REPACK(Y14, Y8, DX)
	REPACK(Y15, Y9, CX)

	ADDQ $8, R8
	JMP  p0loop
p0done:
	VZEROUPPER
	RET

// func mul2QPairsB1AVX(loR, loI, hiR, hiI *float64, n int, mm *[32]float64)
// As mul2QPairsB0AVX but with q1 (matrix high bit) at qubit 0: roles are
// (lowEven, highEven, lowOdd, highOdd), so matrix columns 1 and 2 swap
// streams relative to B0, keeping the frozen summation order, and rows
// pair up as (0,2) -> low half, (1,3) -> high half.
TEXT ·mul2QPairsB1AVX(SB), NOSPLIT, $0-48
	MOVQ loR+0(FP), DI
	MOVQ loI+8(FP), SI
	MOVQ hiR+16(FP), DX
	MOVQ hiI+24(FP), CX
	MOVQ n+32(FP), AX
	MOVQ mm+40(FP), BX
	XORQ R8, R8
p1loop:
	CMPQ R8, AX
	JGE  p1done
	DEINT(DI, Y0, Y2)
	DEINT(SI, Y1, Y3)
	DEINT(DX, Y4, Y6)
	DEINT(CX, Y5, Y7)

	// row 0 -> lowEven', parked in Y14/Y15
	TERM0(0, 8, Y0, Y1)
	TERMN(16, 24, Y4, Y5)
	TERMN(32, 40, Y2, Y3)
	TERMN(48, 56, Y6, Y7)
	VMOVAPD Y8, Y14
	VMOVAPD Y9, Y15

	// row 2 -> lowOdd'
	TERM0(128, 136, Y0, Y1)
	TERMN(144, 152, Y4, Y5)
	TERMN(160, 168, Y2, Y3)
	TERMN(176, 184, Y6, Y7)
	REPACK(Y14, Y8, DI)
	REPACK(Y15, Y9, SI)

	// row 1 -> highEven', parked in Y14/Y15
	TERM0(64, 72, Y0, Y1)
	TERMN(80, 88, Y4, Y5)
	TERMN(96, 104, Y2, Y3)
	TERMN(112, 120, Y6, Y7)
	VMOVAPD Y8, Y14
	VMOVAPD Y9, Y15

	// row 3 -> highOdd'
	TERM0(192, 200, Y0, Y1)
	TERMN(208, 216, Y4, Y5)
	TERMN(224, 232, Y2, Y3)
	TERMN(240, 248, Y6, Y7)
	REPACK(Y14, Y8, DX)
	REPACK(Y15, Y9, CX)

	ADDQ $8, R8
	JMP  p1loop
p1done:
	VZEROUPPER
	RET

// DEINT2 loads 8 floats [a a b b | a a b b] (two 4-float blocks whose
// low/high 128-bit halves are the two roles) from PTR+R8*8 and splits
// them into the low-half stream EV and the high-half stream OD.
#define DEINT2(PTR, EV, OD) \
	VMOVUPD (PTR)(R8*8), Y10 \
	VMOVUPD 32(PTR)(R8*8), Y11 \
	VPERM2F128 $0x20, Y11, Y10, EV \
	VPERM2F128 $0x31, Y11, Y10, OD

// REPACK2 is the inverse of DEINT2: reassembles the two blocks from the
// role streams and stores them at PTR+R8*8.
#define REPACK2(EV, OD, PTR) \
	VPERM2F128 $0x20, OD, EV, Y10 \
	VPERM2F128 $0x31, OD, EV, Y11 \
	VMOVUPD Y10, (PTR)(R8*8) \
	VMOVUPD Y11, 32(PTR)(R8*8)

// MUL1Q_FLAT computes the general 2x2 update on deinterleaved streams
// Y0 (a0r), Y1 (a0i), Y2 (a1r), Y3 (a1i), leaving loR'/loI'/hiR'/hiI'
// in Y4/Y5/Y6/Y7. BX points at the mat2SoA matrix. Matches scalarMul1Q
// operation for operation (no FMA, left-associated sums).
#define MUL1Q_FLAT \
	VBROADCASTSD 0(BX), Y8 \
	VBROADCASTSD 8(BX), Y9 \
	VBROADCASTSD 16(BX), Y14 \
	VBROADCASTSD 24(BX), Y15 \
	VMULPD Y0, Y8, Y4 \
	VMULPD Y1, Y9, Y12 \
	VSUBPD Y12, Y4, Y4 \
	VMULPD Y2, Y14, Y12 \
	VMULPD Y3, Y15, Y13 \
	VSUBPD Y13, Y12, Y12 \
	VADDPD Y12, Y4, Y4 \
	VMULPD Y1, Y8, Y5 \
	VMULPD Y0, Y9, Y12 \
	VADDPD Y12, Y5, Y5 \
	VMULPD Y3, Y14, Y12 \
	VMULPD Y2, Y15, Y13 \
	VADDPD Y13, Y12, Y12 \
	VADDPD Y12, Y5, Y5 \
	VBROADCASTSD 32(BX), Y8 \
	VBROADCASTSD 40(BX), Y9 \
	VBROADCASTSD 48(BX), Y14 \
	VBROADCASTSD 56(BX), Y15 \
	VMULPD Y0, Y8, Y6 \
	VMULPD Y1, Y9, Y12 \
	VSUBPD Y12, Y6, Y6 \
	VMULPD Y2, Y14, Y12 \
	VMULPD Y3, Y15, Y13 \
	VSUBPD Y13, Y12, Y12 \
	VADDPD Y12, Y6, Y6 \
	VMULPD Y1, Y8, Y7 \
	VMULPD Y0, Y9, Y12 \
	VADDPD Y12, Y7, Y7 \
	VMULPD Y3, Y14, Y12 \
	VMULPD Y2, Y15, Y13 \
	VADDPD Y13, Y12, Y12 \
	VADDPD Y12, Y7, Y7

// ANTI_FLAT computes the anti-diagonal update on deinterleaved streams
// Y0-Y3 into Y4-Y7, with the coefficients pre-broadcast in Y8 (a01r),
// Y9 (a01i), Y14 (a10r), Y15 (a10i). Matches scalarAnti.
#define ANTI_FLAT \
	VMULPD Y2, Y8, Y4 \
	VMULPD Y3, Y9, Y12 \
	VSUBPD Y12, Y4, Y4 \
	VMULPD Y3, Y8, Y5 \
	VMULPD Y2, Y9, Y12 \
	VADDPD Y12, Y5, Y5 \
	VMULPD Y0, Y14, Y6 \
	VMULPD Y1, Y15, Y12 \
	VSUBPD Y12, Y6, Y6 \
	VMULPD Y1, Y14, Y7 \
	VMULPD Y0, Y15, Y12 \
	VADDPD Y12, Y7, Y7

// func mul1QPairsAVX(re, im *float64, n int, m *[8]float64)
// General 2x2 kernel for target bit 1 (qubit 0) on a flat array: even
// indices are the qubit-clear role, odd indices the qubit-set role.
// Deinterleaves the pair streams in registers, so the flat array — and
// with it a Batch's batch dimension — is unit-stride vector work.
// n is a multiple of 8.
TEXT ·mul1QPairsAVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ m+24(FP), BX
	XORQ R8, R8
q1ploop:
	CMPQ R8, AX
	JGE  q1pdone
	DEINT(DI, Y0, Y2)
	DEINT(SI, Y1, Y3)
	MUL1Q_FLAT
	REPACK(Y4, Y6, DI)
	REPACK(Y5, Y7, SI)
	ADDQ $8, R8
	JMP  q1ploop
q1pdone:
	VZEROUPPER
	RET

// func mul1QGap2AVX(re, im *float64, n int, m *[8]float64)
// General 2x2 kernel for target bit 2 (qubit 1) on a flat array: each
// 4-amplitude block is [clear clear set set], so the roles are the
// 128-bit halves of each block. n is a multiple of 8.
TEXT ·mul1QGap2AVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ m+24(FP), BX
	XORQ R8, R8
q1gloop:
	CMPQ R8, AX
	JGE  q1gdone
	DEINT2(DI, Y0, Y2)
	DEINT2(SI, Y1, Y3)
	MUL1Q_FLAT
	REPACK2(Y4, Y6, DI)
	REPACK2(Y5, Y7, SI)
	ADDQ $8, R8
	JMP  q1gloop
q1gdone:
	VZEROUPPER
	RET

// func antiPairsAVX(re, im *float64, n int, c *[4]float64)
// Anti-diagonal kernel for target bit 1 on a flat array (pair layout of
// mul1QPairsAVX). n is a multiple of 8.
TEXT ·antiPairsAVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ c+24(FP), BX
	VBROADCASTSD 0(BX), Y8   // a01r
	VBROADCASTSD 8(BX), Y9   // a01i
	VBROADCASTSD 16(BX), Y14 // a10r
	VBROADCASTSD 24(BX), Y15 // a10i
	XORQ R8, R8
adploop:
	CMPQ R8, AX
	JGE  adpdone
	DEINT(DI, Y0, Y2)
	DEINT(SI, Y1, Y3)
	ANTI_FLAT
	REPACK(Y4, Y6, DI)
	REPACK(Y5, Y7, SI)
	ADDQ $8, R8
	JMP  adploop
adpdone:
	VZEROUPPER
	RET

// func antiGap2AVX(re, im *float64, n int, c *[4]float64)
// Anti-diagonal kernel for target bit 2 on a flat array (block layout
// of mul1QGap2AVX). n is a multiple of 8.
TEXT ·antiGap2AVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ c+24(FP), BX
	VBROADCASTSD 0(BX), Y8   // a01r
	VBROADCASTSD 8(BX), Y9   // a01i
	VBROADCASTSD 16(BX), Y14 // a10r
	VBROADCASTSD 24(BX), Y15 // a10i
	XORQ R8, R8
adgloop:
	CMPQ R8, AX
	JGE  adgdone
	DEINT2(DI, Y0, Y2)
	DEINT2(SI, Y1, Y3)
	ANTI_FLAT
	REPACK2(Y4, Y6, DI)
	REPACK2(Y5, Y7, SI)
	ADDQ $8, R8
	JMP  adgloop
adgdone:
	VZEROUPPER
	RET

// Fused population passes (diag.go). The operand block is a popArgs;
// its field offsets:
#define PA_RE 0
#define PA_IM 8
#define PA_OFF 16
#define PA_TAB 48
#define PA_HB0 176
#define PA_HB1 184
#define PA_NU 240
#define PA_N 248
#define PA_RUN 256
#define PA_PBM1 264
#define PA_NPBM1 272
#define PA_MODE 280
#define PA_SEL 288
#define PA_ACC 320
#define PA_ACCB 352
// tab[s][u] sits at PA_TAB + 32*s + 8*u.
//
// Register use: AX the block, CX the walk index j of the run start, DX
// the walk's end, SI/DI the re/im storage, R9-R12 the streams' current
// amplitude indices, R13 stream 0's index at the run's end, BX the
// update counter, R14 the update's selected row offset, R8 a stream's
// row pointer, Y12/Y13 the chain sums A/B, Y14/Y15 a coefficient's
// real/imaginary parts, Y8-Y11 temporaries. At a run's start R8 is m
// and R11, R12 and R14 are scratch.

// PRUNSTART sets R8 = m, the stream index of walk index j: j itself for
// whole-lane streams (pbm1 all ones), or j spread around the population
// bit for half streams, so half streams walk one half of every block.
// Then it selects every update's row for the run, storing each row's
// byte offset in sel: 64 when m has the update's high b0 set, plus 128
// when it has its high b1 set.
#define PRUNSTART(L0, L1) \
	MOVQ CX, R8 \
	ANDQ PA_NPBM1(AX), R8 \
	SHLQ $1, R8 \
	MOVQ CX, R12 \
	ANDQ PA_PBM1(AX), R12 \
	ORQ  R12, R8 \
	XORQ BX, BX \
L0: \
	CMPQ BX, PA_NU(AX) \
	JGE  L1 \
	MOVQ BX, R14 \
	SHLQ $4, R14 \
	MOVQ PA_HB0(AX)(R14*1), R12 \
	ANDQ R8, R12 \
	NEGQ R12 \
	SBBQ R12, R12 \
	ANDQ $64, R12 \
	MOVQ PA_HB1(AX)(R14*1), R11 \
	ANDQ R8, R11 \
	NEGQ R11 \
	SBBQ R11, R11 \
	ANDQ $128, R11 \
	ORQ  R12, R11 \
	MOVQ R11, PA_SEL(AX)(BX*8) \
	INCQ BX \
	JMP  L0 \
L1:

// PSTREAM sets a stream's amplitude index register to off + m.
#define PSTREAM(OFF, IDX) \
	MOVQ OFF(AX), IDX \
	ADDQ R8, IDX

// PLOAD / PSTORE move a stream's vector at its current index.
#define PLOAD(IDX, YR, YI) \
	VMOVUPD (SI)(IDX*8), YR \
	VMOVUPD (DI)(IDX*8), YI

#define PSTORE(IDX, YR, YI) \
	VMOVUPD YR, (SI)(IDX*8) \
	VMOVUPD YI, (DI)(IDX*8)

// PCMUL multiplies a stream's vector by its coefficients in update
// BX's selected row (TO: the stream's tab offset in the block) with
// cscaleRun's expressions: re' = ar*cr - ai*ci, im' = ar*ci + ai*cr.
#define PCMUL(TO, YR, YI) \
	MOVQ TO(AX)(BX*8), R8 \
	VMOVUPD (R8)(R14*1), Y14 \
	VMOVUPD 32(R8)(R14*1), Y15 \
	VMULPD Y14, YR, Y8 \
	VMULPD Y15, YI, Y9 \
	VSUBPD Y9, Y8, Y8 \
	VMULPD Y15, YR, Y9 \
	VMULPD Y14, YI, Y10 \
	VADDPD Y10, Y9, YI \
	VMOVAPD Y8, YR

// PROW loads update BX's selected row offset into R14.
#define PROW \
	MOVQ PA_SEL(AX)(BX*8), R14

// PSQ leaves ar*ar + ai*ai in YR.
#define PSQ(YR, YI) \
	VMULPD YR, YR, YR \
	VMULPD YI, YI, YI \
	VADDPD YI, YR, YR

// PACC adds the transposed squares C0-C3 (one vector per position in
// the 4-amplitude vector, each holding every stream's square) to the
// chains by mode: all to A, A B A B, or A A B B.
#define PACC(C0, C1, C2, C3, A, B, L0, L1, L2) \
	CMPQ PA_MODE(AX), $1 \
	JEQ  L1 \
	JGT  L2 \
	VADDPD C0, A, A \
	VADDPD C1, A, A \
	VADDPD C2, A, A \
	VADDPD C3, A, A \
	JMP  L0 \
L1: \
	VADDPD C0, A, A \
	VADDPD C1, B, B \
	VADDPD C2, A, A \
	VADDPD C3, B, B \
	JMP  L0 \
L2: \
	VADDPD C0, A, A \
	VADDPD C1, A, A \
	VADDPD C2, B, B \
	VADDPD C3, B, B \
L0:

// PPROLOGUE loads the storage pointers from the block in AX and clears
// the chains.
#define PPROLOGUE \
	MOVQ PA_RE(AX), SI \
	MOVQ PA_IM(AX), DI \
	MOVQ PA_N(AX), DX \
	VXORPD Y12, Y12, Y12 \
	VXORPD Y13, Y13, Y13 \
	XORQ CX, CX

// func popsAVX1(pa *popArgs)
// One stream. Its chains live in X12: element 0 is A, element 1 is B.
TEXT ·popsAVX1(SB), NOSPLIT, $0-8
	MOVQ pa+0(FP), AX
	PPROLOGUE
p1run:
	CMPQ CX, DX
	JGE  p1done
	PRUNSTART(p1sel, p1seld)
	PSTREAM(PA_OFF, R9)
	MOVQ R9, R13
	ADDQ PA_RUN(AX), R13
p1loop:
	PLOAD(R9, Y0, Y1)
	CMPQ PA_NU(AX), $0
	JEQ  p1sq
	XORQ BX, BX
p1upd:
	PROW
	PCMUL(PA_TAB, Y0, Y1)
	INCQ BX
	CMPQ BX, PA_NU(AX)
	JLT  p1upd
	PSTORE(R9, Y0, Y1)
p1sq:
	PSQ(Y0, Y1)
	VEXTRACTF128 $1, Y0, X1 // [s2 s3]; X0 = [s0 s1]
	CMPQ PA_MODE(AX), $1
	JEQ  p1m1
	JGT  p1m2
	VADDSD X0, X12, X12
	VPERMILPD $1, X0, X0
	VADDSD X0, X12, X12
	VADDSD X1, X12, X12
	VPERMILPD $1, X1, X1
	VADDSD X1, X12, X12
	JMP  p1next
p1m1:
	VADDPD X0, X12, X12
	VADDPD X1, X12, X12
	JMP  p1next
p1m2:
	VUNPCKLPD X1, X0, X2 // [s0 s2]
	VUNPCKHPD X1, X0, X3 // [s1 s3]
	VADDPD X2, X12, X12
	VADDPD X3, X12, X12
p1next:
	ADDQ $4, R9
	CMPQ R9, R13
	JLT  p1loop
	ADDQ PA_RUN(AX), CX
	JMP  p1run
p1done:
	VMOVSD X12, PA_ACC(AX)
	VPERMILPD $1, X12, X12
	VMOVSD X12, PA_ACCB(AX)
	VZEROUPPER
	RET

// func popsAVX2(pa *popArgs)
// Two streams; stream s's chains are element s of X12 (A) and X13 (B).
TEXT ·popsAVX2(SB), NOSPLIT, $0-8
	MOVQ pa+0(FP), AX
	PPROLOGUE
p2run:
	CMPQ CX, DX
	JGE  p2done
	PRUNSTART(p2sel, p2seld)
	PSTREAM(PA_OFF, R9)
	PSTREAM((PA_OFF+8), R10)
	MOVQ R9, R13
	ADDQ PA_RUN(AX), R13
p2loop:
	PLOAD(R9, Y0, Y1)
	PLOAD(R10, Y2, Y3)
	CMPQ PA_NU(AX), $0
	JEQ  p2sq
	XORQ BX, BX
p2upd:
	PROW
	PCMUL(PA_TAB, Y0, Y1)
	PCMUL((PA_TAB+32), Y2, Y3)
	INCQ BX
	CMPQ BX, PA_NU(AX)
	JLT  p2upd
	PSTORE(R9, Y0, Y1)
	PSTORE(R10, Y2, Y3)
p2sq:
	PSQ(Y0, Y1)
	PSQ(Y2, Y3)
	VUNPCKLPD Y2, Y0, Y8 // [a0 b0 a2 b2]
	VUNPCKHPD Y2, Y0, Y9 // [a1 b1 a3 b3]
	VEXTRACTF128 $1, Y8, X10
	VEXTRACTF128 $1, Y9, X11
	PACC(X8, X9, X10, X11, X12, X13, p2next, p2m1, p2m2)
	ADDQ $4, R9
	ADDQ $4, R10
	CMPQ R9, R13
	JLT  p2loop
	ADDQ PA_RUN(AX), CX
	JMP  p2run
p2done:
	VMOVUPD X12, PA_ACC(AX)
	VMOVUPD X13, PA_ACCB(AX)
	VZEROUPPER
	RET

// func popsAVX4(pa *popArgs)
// Four streams; stream s's chains are element s of Y12 (A) and Y13 (B).
TEXT ·popsAVX4(SB), NOSPLIT, $0-8
	MOVQ pa+0(FP), AX
	PPROLOGUE
p4run:
	CMPQ CX, DX
	JGE  p4done
	PRUNSTART(p4sel, p4seld)
	PSTREAM(PA_OFF, R9)
	PSTREAM((PA_OFF+8), R10)
	PSTREAM((PA_OFF+16), R11)
	PSTREAM((PA_OFF+24), R12)
	MOVQ R9, R13
	ADDQ PA_RUN(AX), R13
p4loop:
	PLOAD(R9, Y0, Y1)
	PLOAD(R10, Y2, Y3)
	PLOAD(R11, Y4, Y5)
	PLOAD(R12, Y6, Y7)
	CMPQ PA_NU(AX), $0
	JEQ  p4sq
	XORQ BX, BX
p4upd:
	PROW
	PCMUL(PA_TAB, Y0, Y1)
	PCMUL((PA_TAB+32), Y2, Y3)
	PCMUL((PA_TAB+64), Y4, Y5)
	PCMUL((PA_TAB+96), Y6, Y7)
	INCQ BX
	CMPQ BX, PA_NU(AX)
	JLT  p4upd
	PSTORE(R9, Y0, Y1)
	PSTORE(R10, Y2, Y3)
	PSTORE(R11, Y4, Y5)
	PSTORE(R12, Y6, Y7)
p4sq:
	PSQ(Y0, Y1)
	PSQ(Y2, Y3)
	PSQ(Y4, Y5)
	PSQ(Y6, Y7)
	VUNPCKLPD Y2, Y0, Y8  // [a0 b0 a2 b2]
	VUNPCKHPD Y2, Y0, Y9  // [a1 b1 a3 b3]
	VUNPCKLPD Y6, Y4, Y10 // [c0 d0 c2 d2]
	VUNPCKHPD Y6, Y4, Y11 // [c1 d1 c3 d3]
	VPERM2F128 $0x20, Y10, Y8, Y1 // C0 = [a0 b0 c0 d0]
	VPERM2F128 $0x20, Y11, Y9, Y3 // C1
	VPERM2F128 $0x31, Y10, Y8, Y5 // C2
	VPERM2F128 $0x31, Y11, Y9, Y7 // C3
	PACC(Y1, Y3, Y5, Y7, Y12, Y13, p4next, p4m1, p4m2)
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	CMPQ R9, R13
	JLT  p4loop
	ADDQ PA_RUN(AX), CX
	JMP  p4run
p4done:
	VMOVUPD Y12, PA_ACC(AX)
	VMOVUPD Y13, PA_ACCB(AX)
	VZEROUPPER
	RET
