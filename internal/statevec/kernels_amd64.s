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
//   R9  — in the split kernels, the index of a step's second 4 floats
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

// func mul2QAVX(re, im *float64, n, b0, b1, lom, him int, mm *[32]float64)
// General 4x4 kernel on a flat array of n floats (a multiple of 16) for
// target bits b0, b1 >= 4, whose role streams are runs of 4 or more.
// Walk index R13 counts the base indices (both bits clear) in ascending
// order, 4 at a time: base R8 is R13 with a zero bit inserted at the
// lower bit, then at the higher (lom, him: each bit minus 1), and its
// four roles sit at R8 from the pointers to offsets 0, b0, b1 and
// b0+b1. Rows accumulate in matrix-column order via TERM0/TERMN,
// matching the frozen loop's summation order.
TEXT ·mul2QAVX(SB), NOSPLIT, $0-64
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ mm+56(FP), BX
	LEAQ (DI)(R8*8), DX
	LEAQ (SI)(R8*8), CX
	LEAQ (R8)(R9*1), R13
	LEAQ (DI)(R13*8), R11
	LEAQ (SI)(R13*8), R12
	LEAQ (SI)(R9*8), R10
	LEAQ (DI)(R9*8), R9
	SHRQ $2, AX
	XORQ R13, R13
m2loop:
	CMPQ R13, AX
	JGE  m2done
	MOVQ R13, R14
	ANDQ lom+40(FP), R14
	LEAQ (R13)(R13*1), R8
	SUBQ R14, R8
	MOVQ R8, R14
	ANDQ him+48(FP), R14
	ADDQ R8, R8
	SUBQ R14, R8
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

	ADDQ $4, R13
	JMP  m2loop
m2done:
	VZEROUPPER
	RET

// Low-qubit 4x4 kernels. When the lower target qubit is qubit 0 or 1
// (bit 1 or 2), a role stream is not a contiguous run of 4 or more
// amplitudes, so these kernels shuffle the role streams out of the flat
// array in registers and back, one call per flat array. The role order
// inside a vector decides which stream feeds which matrix column, and
// the columns always go in matrix-column order (TERM0, then TERMN), so
// every (b0, b1) order has its own variant and the matrix is never
// permuted.

// ROW4 leaves matrix row R times the role streams in Y8/Y9, summing the
// terms in matrix-column order over the streams (Y0,Y1), (C1R,C1I),
// (C2R,C2I) and (Y6,Y7).
#define ROW4(R, C1R, C1I, C2R, C2I) \
	TERM0(R*64, R*64+8, Y0, Y1) \
	TERMN(R*64+16, R*64+24, C1R, C1I) \
	TERMN(R*64+32, R*64+40, C2R, C2I) \
	TERMN(R*64+48, R*64+56, Y6, Y7)

// DEINT loads 8 interleaved floats [e0 o0 e1 o1 e2 o2 e3 o3], the
// first 4 at index R8 of PTR and the other 4 at R9, and splits them into
// even lanes EV and odd lanes OD. REPACK interleaves them back and
// stores them there.
#define DEINT(PTR, EV, OD) \
	VMOVUPD (PTR)(R8*8), Y10 \
	VMOVUPD (PTR)(R9*8), Y11 \
	VPERM2F128 $0x20, Y11, Y10, Y12 \
	VPERM2F128 $0x31, Y11, Y10, Y13 \
	VUNPCKLPD Y13, Y12, EV \
	VUNPCKHPD Y13, Y12, OD

#define REPACK(EV, OD, PTR) \
	VUNPCKLPD OD, EV, Y10 \
	VUNPCKHPD OD, EV, Y11 \
	VPERM2F128 $0x20, Y11, Y10, Y12 \
	VPERM2F128 $0x31, Y11, Y10, Y13 \
	VMOVUPD Y12, (PTR)(R8*8) \
	VMOVUPD Y13, (PTR)(R9*8)

// DEINT2 loads two 4-float blocks [a a b b] at indices R8 and R9 of PTR
// and splits them into the stream of their low 128-bit halves EV and of
// their high halves OD. REPACK2 reassembles and stores the blocks.
#define DEINT2(PTR, EV, OD) \
	VMOVUPD (PTR)(R8*8), Y10 \
	VMOVUPD (PTR)(R9*8), Y11 \
	VPERM2F128 $0x20, Y11, Y10, EV \
	VPERM2F128 $0x31, Y11, Y10, OD

#define REPACK2(EV, OD, PTR) \
	VPERM2F128 $0x20, OD, EV, Y10 \
	VPERM2F128 $0x31, OD, EV, Y11 \
	VMOVUPD Y10, (PTR)(R8*8) \
	VMOVUPD Y11, (PTR)(R9*8)

// A split 4x4 kernel loads its arguments (re, im, n, hi, mm) into DI,
// SI, AX, R11 and BX itself, outside any macro: go vet's argument check
// reads a macro's lines as part of the function above its definition.
// SPLIT2Q_PROLOGUE then sets DX/CX to the upper halves' re/im (hi
// floats on), R11 to the run a step walks, max(hi, 8), R13 to the
// offset of a step's second 4 floats (4, or 8 when hi = 4: the lower
// halves of two 8-amplitude blocks), and R10, the block start, to 0.
#define SPLIT2Q_PROLOGUE \
	LEAQ (DI)(R11*8), DX \
	LEAQ (SI)(R11*8), CX \
	MOVQ $4, R13 \
	MOVQ $8, R14 \
	CMPQ R11, $4 \
	CMOVQEQ R14, R13 \
	CMOVQEQ R14, R11 \
	XORQ R10, R10

// SPLIT2Q is the loop of a split 4x4 kernel. Blocks of 2*R11 floats
// start at R10; each step splits 8 floats of a block's lower half (at R8
// and R9 = R8 + R13) and the 8 across from them in the upper half into
// four role streams with DE (DEINT: qubit 0 interleaved at stride 2;
// DEINT2: qubit 1, the 128-bit halves of each 4-amplitude block):
// Y0/Y1 lower-clear, Y2/Y3 lower-set, Y4/Y5 upper-clear, Y6/Y7
// upper-set, "set" naming the lower qubit. (C1R,C1I) and (C2R,C2I) feed
// matrix columns 1 and 2, and rows RA, RB go back to the lower half
// (clear, set) and RC, RD to the upper half through RP.
#define SPLIT2Q(DE, RP, C1R, C1I, C2R, C2I, RA, RB, RC, RD, L0, L1, L2) \
L0: \
	CMPQ R10, AX \
	JGE  L2 \
	MOVQ R10, R8 \
	LEAQ (R10)(R11*1), R12 \
	PCALIGN $32 \
L1: \
	LEAQ (R8)(R13*1), R9 \
	DE(DI, Y0, Y2) \
	DE(SI, Y1, Y3) \
	DE(DX, Y4, Y6) \
	DE(CX, Y5, Y7) \
	ROW4(RA, C1R, C1I, C2R, C2I) \
	VMOVAPD Y8, Y14 \
	VMOVAPD Y9, Y15 \
	ROW4(RB, C1R, C1I, C2R, C2I) \
	RP(Y14, Y8, DI) \
	RP(Y15, Y9, SI) \
	ROW4(RC, C1R, C1I, C2R, C2I) \
	VMOVAPD Y8, Y14 \
	VMOVAPD Y9, Y15 \
	ROW4(RD, C1R, C1I, C2R, C2I) \
	RP(Y14, Y8, DX) \
	RP(Y15, Y9, CX) \
	ADDQ $8, R8 \
	CMPQ R8, R12 \
	JLT  L1 \
	LEAQ (R10)(R11*2), R10 \
	JMP  L0 \
L2: \
	VZEROUPPER \
	RET

// func mul2QPairsB0AVX(re, im *float64, n, hi int, mm *[32]float64)
// General 4x4 kernel on a flat array of n floats for qubit 0 (bit 1) as
// q0, the matrix low bit, and the qubit at bit hi >= 4 as q1. Roles
// (lower-even, lower-odd, upper-even, upper-odd) are matrix columns
// 0-3. n is a multiple of 16 and of 2*hi.
TEXT ·mul2QPairsB0AVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ hi+24(FP), R11
	MOVQ mm+32(FP), BX
	SPLIT2Q_PROLOGUE
	SPLIT2Q(DEINT, REPACK, Y2, Y3, Y4, Y5, 0, 1, 2, 3, pb0blk, pb0loop, pb0done)

// func mul2QPairsB1AVX(re, im *float64, n, hi int, mm *[32]float64)
// As mul2QPairsB0AVX with qubit 0 as q1, the matrix high bit: columns 1
// and 2 read the upper-even and lower-odd streams, and rows (0, 2) go to
// the lower half, (1, 3) to the upper.
TEXT ·mul2QPairsB1AVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ hi+24(FP), R11
	MOVQ mm+32(FP), BX
	SPLIT2Q_PROLOGUE
	SPLIT2Q(DEINT, REPACK, Y4, Y5, Y2, Y3, 0, 2, 1, 3, pb1blk, pb1loop, pb1done)

// func mul2QGap2B0AVX(re, im *float64, n, hi int, mm *[32]float64)
// mul2QPairsB0AVX for qubit 1 (bit 2) as q0: each 4-amplitude block is
// [clear clear set set], so the roles are 128-bit halves.
TEXT ·mul2QGap2B0AVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ hi+24(FP), R11
	MOVQ mm+32(FP), BX
	SPLIT2Q_PROLOGUE
	SPLIT2Q(DEINT2, REPACK2, Y2, Y3, Y4, Y5, 0, 1, 2, 3, gb0blk, gb0loop, gb0done)

// func mul2QGap2B1AVX(re, im *float64, n, hi int, mm *[32]float64)
// mul2QPairsB1AVX for qubit 1 (bit 2) as q1.
TEXT ·mul2QGap2B1AVX(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ hi+24(FP), R11
	MOVQ mm+32(FP), BX
	SPLIT2Q_PROLOGUE
	SPLIT2Q(DEINT2, REPACK2, Y4, Y5, Y2, Y3, 0, 2, 1, 3, gb1blk, gb1loop, gb1done)

// QUADTERM adds matrix column C's term to the accumulators Y4/Y5: the
// amplitude in block lane L, broadcast to every lane, times the column
// (CR, CI), whose lane l holds the entry of the row lane l's role.
#define QUADTERM(L, CR, CI) \
	VPERMPD L, Y0, Y2 \
	VPERMPD L, Y1, Y3 \
	VMULPD Y2, CR, Y6 \
	VMULPD Y3, CI, Y7 \
	VSUBPD Y7, Y6, Y6 \
	VADDPD Y6, Y4, Y4 \
	VMULPD Y3, CR, Y6 \
	VMULPD Y2, CI, Y7 \
	VADDPD Y7, Y6, Y6 \
	VADDPD Y6, Y5, Y5

// MUL2QQUAD is the body of the qubits-0-and-1 kernels. Each 4-amplitude
// block holds one base's four roles, so a vector is one base: lane l
// holds the role k(l), and L1/L2 name the lanes of roles 1 and 2. The
// columns sit in Y8-Y15 (column c's real parts, then its imaginary
// parts, with lane l holding row k(l)), so each block takes four
// broadcast terms in matrix-column order: with lane l of the result row
// k(l), that is scalarMul2Q's row sum. DI/SI hold re/im, AX n and BX
// the columns.
#define MUL2QQUAD(L1, L2, L0, LD) \
	VMOVUPD 0(BX), Y8 \
	VMOVUPD 32(BX), Y9 \
	VMOVUPD 64(BX), Y10 \
	VMOVUPD 96(BX), Y11 \
	VMOVUPD 128(BX), Y12 \
	VMOVUPD 160(BX), Y13 \
	VMOVUPD 192(BX), Y14 \
	VMOVUPD 224(BX), Y15 \
	XORQ R8, R8 \
L0: \
	CMPQ R8, AX \
	JGE  LD \
	VMOVUPD (DI)(R8*8), Y0 \
	VMOVUPD (SI)(R8*8), Y1 \
	VPERMPD $0x00, Y0, Y2 \
	VPERMPD $0x00, Y1, Y3 \
	VMULPD Y2, Y8, Y4 \
	VMULPD Y3, Y9, Y6 \
	VSUBPD Y6, Y4, Y4 \
	VMULPD Y3, Y8, Y5 \
	VMULPD Y2, Y9, Y6 \
	VADDPD Y6, Y5, Y5 \
	QUADTERM(L1, Y10, Y11) \
	QUADTERM(L2, Y12, Y13) \
	QUADTERM($0xFF, Y14, Y15) \
	VMOVUPD Y4, (DI)(R8*8) \
	VMOVUPD Y5, (SI)(R8*8) \
	ADDQ $4, R8 \
	JMP  L0 \
LD: \
	VZEROUPPER \
	RET

// func mul2QQuadB0AVX(re, im *float64, n int, cols *[32]float64)
// General 4x4 kernel for q0 = qubit 0 and q1 = qubit 1: block lane l is
// role l. n is a multiple of 4.
TEXT ·mul2QQuadB0AVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ cols+24(FP), BX
	MUL2QQUAD($0x55, $0xAA, qb0loop, qb0done)

// func mul2QQuadB1AVX(re, im *float64, n int, cols *[32]float64)
// As mul2QQuadB0AVX for q0 = qubit 1 and q1 = qubit 0: block lanes 1
// and 2 hold roles 2 and 1.
TEXT ·mul2QQuadB1AVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), AX
	MOVQ cols+24(FP), BX
	MUL2QQUAD($0xAA, $0x55, qb1loop, qb1done)

// GSCALE multiplies (Y0, Y1) = (ar, ai) by (Y8 + Y9 i) with
// cscaleAVX's expressions (re' = ar*cr - ai*ci, im' = ar*ci + ai*cr)
// and stores the result at index R9 of DI/SI.
#define GSCALE \
	VMULPD Y0, Y8, Y2 \
	VMULPD Y1, Y9, Y3 \
	VSUBPD Y3, Y2, Y2 \
	VMOVUPD Y2, (DI)(R9*8) \
	VMULPD Y0, Y9, Y2 \
	VMULPD Y1, Y8, Y3 \
	VADDPD Y3, Y2, Y2 \
	VMOVUPD Y2, (SI)(R9*8)

// GPAIRS gathers for bit 1: UNPCK (VUNPCKLPD for outcome 0, VUNPCKHPD
// for 1) keeps the even or odd amplitudes of 8 source floats, in the
// order [0 2 1 3], and VPERMPD puts them back in order.
#define GPAIRS(UNPCK, L0, L1) \
L0: \
	CMPQ R8, AX \
	JGE  L1 \
	VMOVUPD (DX)(R8*8), Y0 \
	VMOVUPD 32(DX)(R8*8), Y2 \
	UNPCK Y2, Y0, Y0 \
	VPERMPD $0xD8, Y0, Y0 \
	VMOVUPD (CX)(R8*8), Y1 \
	VMOVUPD 32(CX)(R8*8), Y3 \
	UNPCK Y3, Y1, Y1 \
	VPERMPD $0xD8, Y1, Y1 \
	GSCALE \
	ADDQ $8, R8 \
	ADDQ $4, R9 \
	JMP  L0 \
L1:

// GBLOCKS gathers for bit 2: IMM ($0x20 for outcome 0, $0x31 for 1)
// keeps the first or second 128-bit half of two 4-amplitude blocks.
#define GBLOCKS(IMM, L0, L1) \
L0: \
	CMPQ R8, AX \
	JGE  L1 \
	VMOVUPD (DX)(R8*8), Y2 \
	VMOVUPD 32(DX)(R8*8), Y3 \
	VPERM2F128 IMM, Y3, Y2, Y0 \
	VMOVUPD (CX)(R8*8), Y2 \
	VMOVUPD 32(CX)(R8*8), Y3 \
	VPERM2F128 IMM, Y3, Y2, Y1 \
	GSCALE \
	ADDQ $8, R8 \
	ADDQ $4, R9 \
	JMP  L0 \
L1:

// func gatherScaleAVX(dstR, dstI, srcR, srcI *float64, n, bit, outcome int, scale float64)
// gatherScale in one pass: the n source floats (a multiple of 8) keep
// the amplitudes whose bit equals outcome, scaled by (scale + 0i) as
// they are stored, in ascending order. dst may alias src at or below
// it: each step stores 4 floats at or below the 8 (4 for bit >= 4) it
// has just read, and reads nothing below them later.
TEXT ·gatherScaleAVX(SB), NOSPLIT, $0-64
	MOVQ dstR+0(FP), DI
	MOVQ dstI+8(FP), SI
	MOVQ srcR+16(FP), DX
	MOVQ srcI+24(FP), CX
	MOVQ n+32(FP), AX
	MOVQ bit+40(FP), R11
	MOVQ outcome+48(FP), R13
	VBROADCASTSD scale+56(FP), Y8
	VXORPD Y9, Y9, Y9
	XORQ R8, R8
	XORQ R9, R9
	CMPQ R11, $2
	JEQ  gsbit2
	JGT  gswide
	CMPQ R13, $0
	JNE  gsodd
	GPAIRS(VUNPCKLPD, gseven, gsevend)
	JMP  gsdone
gsodd:
	GPAIRS(VUNPCKHPD, gsodl, gsodd2)
	JMP  gsdone
gsbit2:
	CMPQ R13, $0
	JNE  gsset
	GBLOCKS($0x20, gsclr, gsclrd)
	JMP  gsdone
gsset:
	GBLOCKS($0x31, gssetl, gssetd)
	JMP  gsdone
gswide:
	// Runs of bit >= 4 amplitudes, one after another: R8 walks the
	// source from the outcome's half on and skips the other half after
	// each run; R12 is where the run ends in dst.
	IMULQ R11, R13
	LEAQ (DX)(R13*8), DX
	LEAQ (CX)(R13*8), CX
	SHRQ $1, AX
gsrun:
	CMPQ R9, AX
	JGE  gsdone
	LEAQ (R9)(R11*1), R12
gswloop:
	VMOVUPD (DX)(R8*8), Y0
	VMOVUPD (CX)(R8*8), Y1
	GSCALE
	ADDQ $4, R8
	ADDQ $4, R9
	CMPQ R9, R12
	JLT  gswloop
	ADDQ R11, R8
	JMP  gsrun
gsdone:
	VZEROUPPER
	RET

// func enterSpreadAVX(re, im *float64, size, bit int)
// enterSpread in one pass: each 4 floats of the first size (a multiple
// of 4) move to their index with a zero bit inserted at `bit`, and the
// amplitudes with that bit set become +0. It runs top down, so every
// source vector is read before a store lands on it: each step stores at
// or above the index it reads.
TEXT ·enterSpreadAVX(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ size+16(FP), R8
	MOVQ bit+24(FP), R11
	VXORPD Y9, Y9, Y9
	SUBQ $4, R8
	CMPQ R11, $2
	JEQ  esbit2
	JGT  eswide
esb1:
	// [a b c d] -> [a 0 b 0], [c 0 d 0] at twice the index.
	CMPQ R8, $0
	JLT  esdone
	LEAQ (R8)(R8*1), R9
	VPERMPD $0xD8, (DI)(R8*8), Y0
	VPERMPD $0xD8, (SI)(R8*8), Y1
	VUNPCKLPD Y9, Y0, Y2
	VUNPCKHPD Y9, Y0, Y3
	VMOVUPD Y2, (DI)(R9*8)
	VMOVUPD Y3, 32(DI)(R9*8)
	VUNPCKLPD Y9, Y1, Y2
	VUNPCKHPD Y9, Y1, Y3
	VMOVUPD Y2, (SI)(R9*8)
	VMOVUPD Y3, 32(SI)(R9*8)
	SUBQ $4, R8
	JMP  esb1
esbit2:
	// [a b c d] -> [a b 0 0], [c d 0 0] at twice the index.
	CMPQ R8, $0
	JLT  esdone
	LEAQ (R8)(R8*1), R9
	VMOVUPD (DI)(R8*8), Y0
	VMOVUPD (SI)(R8*8), Y1
	VPERM2F128 $0x20, Y9, Y0, Y2
	VPERM2F128 $0x21, Y9, Y0, Y3
	VMOVUPD Y2, (DI)(R9*8)
	VMOVUPD Y3, 32(DI)(R9*8)
	VPERM2F128 $0x20, Y9, Y1, Y2
	VPERM2F128 $0x21, Y9, Y1, Y3
	VMOVUPD Y2, (SI)(R9*8)
	VMOVUPD Y3, 32(SI)(R9*8)
	SUBQ $4, R8
	JMP  esbit2
eswide:
	// Runs of bit >= 4, top down: the run at R10 moves to R9 = 2*R10
	// and +0 fills the run at R9 + bit; R8 walks the run's vectors down
	// from its top.
	LEAQ (DI)(R11*8), DX
	LEAQ (SI)(R11*8), CX
	ADDQ $4, R8
	SUBQ R11, R8
	MOVQ R8, R10
esrun:
	CMPQ R10, $0
	JLT  esdone
	LEAQ -4(R11), R8
eswloop:
	LEAQ (R10)(R8*1), R12
	LEAQ (R12)(R10*1), R9
	VMOVUPD (DI)(R12*8), Y0
	VMOVUPD (SI)(R12*8), Y1
	VMOVUPD Y0, (DI)(R9*8)
	VMOVUPD Y1, (SI)(R9*8)
	VMOVUPD Y9, (DX)(R9*8)
	VMOVUPD Y9, (CX)(R9*8)
	SUBQ $4, R8
	JGE  eswloop
	SUBQ R11, R10
	JMP  esrun
esdone:
	VZEROUPPER
	RET

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
	LEAQ 4(R8), R9
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
	LEAQ 4(R8), R9
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
	LEAQ 4(R8), R9
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
	LEAQ 4(R8), R9
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
