// AVX2 kernels for the NN training and inference hot path. Bit-identity
// contract: every float64 result is one vector lane that performs the
// same IEEE-754 operations in the same order as the scalar Go code — a
// forward accumulator starts at the bias and adds x[k]*w[k] terms in
// strictly ascending k, a gradient cell adds its samples in ascending
// order, an Adam update divides and takes the square root exactly where
// the scalar expression does — using separate VMULPD and VADDPD. No FMA:
// fusing would drop the intermediate rounding step and change results in
// the last ulp.

#include "textflag.h"

// func cpuidAVX2() bool
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX[27] OSXSAVE, ECX[28] AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  novx

	// XGETBV: OS must preserve XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novx

	// CPUID leaf 7 subleaf 0: EBX[5] AVX2.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    novx

	MOVB $1, ret+0(FP)
	RET

novx:
	MOVB $0, ret+0(FP)
	RET

// func mm44avx2(z, xg, w, bias *float64, kn, out int64)
//
// Y0..Y3 hold the accumulators for outputs c0..c3; lane j of each is
// batch row j. Per k: one 32-byte load of the packed 4-row input column,
// four weight broadcasts, four mul+add pairs — 16 MACs on 16 independent
// chains. After the k loop the 4×4 tile is transposed in registers
// (unpack + 128-bit permute) so each batch row stores as one contiguous
// 4-output vector into z.
TEXT ·mm44avx2(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), DI
	MOVQ xg+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ bias+24(FP), BX
	MOVQ kn+32(FP), CX
	MOVQ out+40(FP), R12

	// Weight row pointers: rows are kn*8 bytes apart.
	MOVQ CX, AX
	SHLQ $3, AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	// Accumulators start at the biases, as in the scalar path.
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3

loop:
	VMOVUPD      (SI), Y4
	VBROADCASTSD (R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R9), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD (R10), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y2, Y2
	VBROADCASTSD (R11), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	DECQ         CX
	JNZ          loop

	// Transpose output-major accumulators to row-major tiles.
	VUNPCKLPD  Y1, Y0, Y6
	VUNPCKHPD  Y1, Y0, Y7
	VUNPCKLPD  Y3, Y2, Y8
	VUNPCKHPD  Y3, Y2, Y9
	VPERM2F128 $0x20, Y8, Y6, Y0
	VPERM2F128 $0x20, Y9, Y7, Y1
	VPERM2F128 $0x31, Y8, Y6, Y2
	VPERM2F128 $0x31, Y9, Y7, Y3

	// Store the four batch rows at stride out.
	SHLQ    $3, R12
	VMOVUPD Y0, (DI)
	ADDQ    R12, DI
	VMOVUPD Y1, (DI)
	ADDQ    R12, DI
	VMOVUPD Y2, (DI)
	ADDQ    R12, DI
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET

// func mv16avx2(z, x, w, bias *float64, in int64)
//
// One input row against 16 consecutive weight rows (in elements each):
// z[c] = bias[c] + Σ_k x[k]·w[c*in+k] for c < 16. Y0..Y3 are the
// accumulators of outputs 0-3, 4-7, 8-11 and 12-15, lane c of Yg being
// output 4g+c — four independent vector chains, each adding its terms in
// strictly ascending k with separate VMULPD/VADDPD. Per 4 k the kernel
// loads each group's 4×4 weight block as four 2×2 halves (a 16-byte load
// plus a VINSERTF128 from memory), transposes it to four k-columns with
// VUNPCKLPD/VUNPCKHPD, and multiplies each column by the broadcast input
// element. R8..R11 are the four groups' first weight rows; a group's
// rows sit at +0, +AX, +2·AX and +DX (AX = in·8, DX = 3·AX).
TEXT ·mv16avx2(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ bias+24(FP), BX
	MOVQ in+32(FP), CX

	MOVQ CX, AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), DX
	LEAQ (R8)(AX*4), R9
	LEAQ (R9)(AX*4), R10
	LEAQ (R10)(AX*4), R11

	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3

	MOVQ CX, R12
	ANDQ $3, R12
	SHRQ $2, CX
	JZ   mvtail

mvloop:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15

#define MVGROUP(R, ACC) \
	VMOVUPD     (R), X4                  \
	VINSERTF128 $1, (R)(AX*2), Y4, Y4    \
	VMOVUPD     (R)(AX*1), X5            \
	VINSERTF128 $1, (R)(DX*1), Y5, Y5    \
	VMOVUPD     16(R), X6                \
	VINSERTF128 $1, 16(R)(AX*2), Y6, Y6  \
	VMOVUPD     16(R)(AX*1), X7          \
	VINSERTF128 $1, 16(R)(DX*1), Y7, Y7  \
	VUNPCKLPD   Y5, Y4, Y8               \
	VUNPCKHPD   Y5, Y4, Y9               \
	VUNPCKLPD   Y7, Y6, Y10              \
	VUNPCKHPD   Y7, Y6, Y11              \
	VMULPD      Y12, Y8, Y8              \
	VADDPD      Y8, ACC, ACC             \
	VMULPD      Y13, Y9, Y9              \
	VADDPD      Y9, ACC, ACC             \
	VMULPD      Y14, Y10, Y10            \
	VADDPD      Y10, ACC, ACC            \
	VMULPD      Y15, Y11, Y11            \
	VADDPD      Y11, ACC, ACC            \
	ADDQ        $32, R

	MVGROUP(R8, Y0)
	MVGROUP(R9, Y1)
	MVGROUP(R10, Y2)
	MVGROUP(R11, Y3)
	ADDQ $32, SI
	DECQ CX
	JNZ  mvloop

mvtail:
	TESTQ R12, R12
	JZ    mvstore

mvtailloop:
	VBROADCASTSD (SI), Y12

#define MVCOL(R, ACC) \
	VMOVSD      (R), X4                  \
	VMOVHPD     (R)(AX*1), X4, X4        \
	VMOVSD      (R)(AX*2), X5            \
	VMOVHPD     (R)(DX*1), X5, X5        \
	VINSERTF128 $1, X5, Y4, Y4           \
	VMULPD      Y12, Y4, Y4              \
	VADDPD      Y4, ACC, ACC             \
	ADDQ        $8, R

	MVCOL(R8, Y0)
	MVCOL(R9, Y1)
	MVCOL(R10, Y2)
	MVCOL(R11, Y3)
	ADDQ $8, SI
	DECQ R12
	JNZ  mvtailloop

mvstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func gradAccum4avx2(grad, y *float64, stride int64, d *[4]float64, n int64)
//
// g[i] = (((g[i] + d0·y0[i]) + d1·y1[i]) + d2·y2[i]) + d3·y3[i] for
// i < n, n a positive multiple of 4, where row j of y starts stride
// elements after row j-1. Four i per vector; each lane keeps the scalar
// loop's per-cell sample order with separate VMULPD/VADDPD.
TEXT ·gradAccum4avx2(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ stride+16(FP), AX
	MOVQ d+24(FP), BX
	MOVQ n+32(FP), CX

	SHLQ $3, AX
	LEAQ (AX)(AX*2), DX
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	SHRQ $2, CX

galoop:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(AX*2), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(DX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     galoop
	VZEROUPPER
	RET

// func axpyavx2(dst, y *float64, a float64, n int64)
//
// dst[i] = dst[i] + a·y[i] for i < n, n a positive multiple of 4, four
// elements per vector with separate VMULPD/VADDPD.
TEXT ·axpyavx2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         y+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ         n+24(FP), CX
	SHRQ         $2, CX

axloop:
	VMOVUPD (DI), Y2
	VMULPD  (SI), Y0, Y1
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     axloop
	VZEROUPPER
	RET

// func adamavx2(w, grad, m, v *float64, n int64, c *adamConsts)
//
// The Adam update of adam() four parameters per vector, for n a positive
// multiple of 4. Each lane evaluates the scalar expression's operations
// in its order — gi = g·inv; m = β1·m + c1·gi; v = β2·v + (c2·gi)·gi;
// w = w − (lr·(m/bc1)) / (√(v/bc2) + ε) — with true VDIVPD/VSQRTPD and
// no FMA, so every lane is bit-identical to the scalar loop.
TEXT ·adamavx2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), BX

	VBROADCASTSD (BX), Y0    // inv
	VBROADCASTSD 8(BX), Y1   // β1
	VBROADCASTSD 16(BX), Y2  // c1 = 1-β1
	VBROADCASTSD 24(BX), Y3  // β2
	VBROADCASTSD 32(BX), Y4  // c2 = 1-β2
	VBROADCASTSD 40(BX), Y5  // lr
	VBROADCASTSD 48(BX), Y6  // bc1
	VBROADCASTSD 56(BX), Y7  // bc2
	VBROADCASTSD 64(BX), Y8  // ε
	SHRQ $2, CX

adloop:
	VMULPD  (SI), Y0, Y9     // gi
	VMULPD  (R8), Y1, Y10    // β1·m
	VMULPD  Y9, Y2, Y11      // c1·gi
	VADDPD  Y11, Y10, Y10    // m
	VMOVUPD Y10, (R8)
	VMULPD  (R9), Y3, Y11    // β2·v
	VMULPD  Y9, Y4, Y12      // c2·gi
	VMULPD  Y9, Y12, Y12     // (c2·gi)·gi
	VADDPD  Y12, Y11, Y11    // v
	VMOVUPD Y11, (R9)
	VDIVPD  Y6, Y10, Y10     // m/bc1
	VMULPD  Y10, Y5, Y10     // lr·(m/bc1)
	VDIVPD  Y7, Y11, Y11     // v/bc2
	VSQRTPD Y11, Y11
	VADDPD  Y8, Y11, Y11     // √(v/bc2) + ε
	VDIVPD  Y11, Y10, Y10
	VMOVUPD (DI), Y12
	VSUBPD  Y10, Y12, Y12
	VMOVUPD Y12, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adloop
	VZEROUPPER
	RET

// func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32)
//
// Integer dot products of 4 consecutive int8 weight rows (stride
// elements apart) against the int16 activation vector, over blocks×16
// elements. Per block: one 32-byte activation load, then per row a
// sign-extending 16×int8 load, VPMADDWD (16 products pair-summed to 8
// int32) and VPADDD into that row's lane accumulator. The 8 lanes per
// row are written to lanes[row*8..row*8+8] for the caller to fold —
// integer addition is associative, so lane order cannot change the sum.
TEXT ·quantDot4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), R8
	MOVQ stride+8(FP), AX
	MOVQ x+16(FP), SI
	MOVQ blocks+24(FP), CX
	MOVQ lanes+32(FP), DI
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

qloop:
	VMOVDQU   (SI), Y4
	VPMOVSXBW (R8), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R9), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (R10), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW (R11), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ      $32, SI
	ADDQ      $16, R8
	ADDQ      $16, R9
	ADDQ      $16, R10
	ADDQ      $16, R11
	DECQ      CX
	JNZ       qloop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET
