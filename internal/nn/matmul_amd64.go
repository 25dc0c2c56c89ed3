package nn

// cpuidAVX2 reports whether the CPU and OS support AVX2 (CPUID leaf 7
// EBX[5], plus OSXSAVE/XGETBV confirmation that ymm state is preserved
// across context switches). Implemented in matmul_amd64.s.
func cpuidAVX2() bool

// mm44avx2 computes a 4-row × 4-output tile of the batched forward pass:
// for j,c in 0..3, z[j*out+c] = bias[c] + Σ_k xg[k*4+j]·w[c*kn+k], with
// each of the 16 accumulators adding its terms in strictly ascending k
// using separate (unfused) VMULPD/VADDPD — bit-identical to the scalar
// reference, four samples per vector lane. xg is the 4 input rows packed
// k-major (lane j of element k at xg[k*4+j]); w holds 4 consecutive
// output rows of kn weights each; kn ≥ 1. Implemented in matmul_amd64.s.
//
//go:noescape
func mm44avx2(z, xg, w, bias *float64, kn, out int64)

// mv16avx2 computes 16 outputs of one input row: for c in 0..15,
// z[c] = bias[c] + Σ_k x[k]·w[c*in+k], each output one vector lane that
// adds its terms in strictly ascending k with separate VMULPD/VADDPD —
// bit-identical to the scalar reference. w holds 16 consecutive output
// rows of in weights each, transposed to k-columns in registers 4×4 at a
// time; in ≥ 1. Implemented in matmul_amd64.s.
//
//go:noescape
func mv16avx2(z, x, w, bias *float64, in int64)

// gradAccum4avx2 adds four samples' weight-gradient contributions to one
// gradient row, four elements per vector: grad[i] = (((grad[i] +
// d[0]·y0[i]) + d[1]·y1[i]) + d[2]·y2[i]) + d[3]·y3[i] for i < n, where
// row j of y starts j·stride elements in. Separate VMULPD/VADDPD keep
// each cell's ascending sample order, so the result is bit-identical to
// the scalar loop. n must be a positive multiple of 4. Implemented in
// matmul_amd64.s.
//
//go:noescape
func gradAccum4avx2(grad, y *float64, stride int64, d *[4]float64, n int64)

// axpyavx2 adds a·y into dst for i < n (a positive multiple of 4), four
// elements per vector with separate VMULPD/VADDPD — bit-identical to the
// scalar loop. Implemented in matmul_amd64.s.
//
//go:noescape
func axpyavx2(dst, y *float64, a float64, n int64)

// adamavx2 applies the Adam update of adam to n parameters (a positive
// multiple of 4), four per vector, with the scalar expression's
// operations in its order: unfused VMULPD/VADDPD, true VDIVPD and
// VSQRTPD. Implemented in matmul_amd64.s.
//
//go:noescape
func adamavx2(w, grad, m, v *float64, n int64, c *adamConsts)

// useAVX2 gates the assembly kernels; a variable (not a constant) so tests
// can force the pure-Go path on AVX2 hardware.
var useAVX2 = cpuidAVX2()

// quantDot4 computes 4 int8×int16 dot products over blocks×16 elements,
// leaving 8 partial int32 lanes per row in lanes for the caller to fold.
// Implemented in matmul_amd64.s.
//
//go:noescape
func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32)
