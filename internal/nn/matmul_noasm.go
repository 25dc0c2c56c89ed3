//go:build !amd64

package nn

// The vector kernels are only reachable when useAVX2 is true, which
// never holds off amd64.
func mm44avx2(z, xg, w, bias *float64, kn, out int64) {
	panic("nn: mm44avx2 called without AVX2 support")
}

func mv16avx2(z, x, w, bias *float64, in int64) {
	panic("nn: mv16avx2 called without AVX2 support")
}

func gradAccum4avx2(grad, y *float64, stride int64, d *[4]float64, n int64) {
	panic("nn: gradAccum4avx2 called without AVX2 support")
}

func axpyavx2(dst, y *float64, a float64, n int64) {
	panic("nn: axpyavx2 called without AVX2 support")
}

func adamavx2(w, grad, m, v *float64, n int64, c *adamConsts) {
	panic("nn: adamavx2 called without AVX2 support")
}

var useAVX2 = false

func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32) {
	panic("nn: quantDot4 called without AVX2 support")
}
