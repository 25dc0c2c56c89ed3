// batch.go implements the batched matrix-kernel hot path: ForwardBatch
// evaluates B inputs as one loop-blocked matrix–matrix multiply per layer
// and BackwardBatch accumulates a whole minibatch's gradients in register-
// tiled kernels. Both are bit-identical to the retained scalar reference
// paths (ForwardRef/BackwardRef): every accumulator — an output
// pre-activation, a weight gradient, a propagated delta — is a single
// chain that adds its terms in exactly the reference order (bias first,
// then ascending input index; gradients in ascending sample order). The
// kernels gain their speed from register blocking (independent
// accumulator chains hide FP-add latency instead of serializing on it),
// SIMD lanes that each carry one such chain, and cache blocking (a weight
// tile is reused across every row of the batch while it is hot), never
// from re-association, so batched training produces byte-identical
// weights to per-sample training for a fixed seed.
//
// The forward pass tiles across rows where the batch has them (4 rows ×
// 4 outputs) and across outputs where it does not: a B=1 decision or the
// b%4 tail of a minibatch runs 4 (pure Go) or 16 (AVX2) outputs of one
// row at once, so even a single row keeps several chains in flight. The
// AVX2 row kernel transposes 4×4 weight blocks in registers rather than
// keeping a transposed weight copy, so nothing has to stay coherent with
// Adam, CopyWeightsFrom or Load.
package nn

import (
	"fmt"
	"math"
)

// Kernel blocking parameters. rowTile×colTile accumulators live in
// registers in the inner loops; kBand keeps the active x/w slices inside
// L1 while a tile pass runs. Changing these never changes results — only
// how the same additions are scheduled.
const (
	rowTile = 4   // batch rows per register tile
	colTile = 4   // outputs per register tile
	kBand   = 512 // input elements per cache band
)

// EnsureBatch grows every layer's forward/backward scratch to hold b
// rows, so subsequent ForwardBatch/BackwardBatch calls up to that batch
// size allocate nothing. Growth is monotonic; weights, gradients, and
// optimizer state are untouched (and the serialized formats never include
// scratch, so checkpoints are independent of batch capacity).
func (m *MLP) EnsureBatch(b int) {
	if b <= m.batchCap {
		return
	}
	maxIn := 0
	for _, l := range m.layers {
		l.z = make([]float64, b*l.out)
		l.y = make([]float64, b*l.out)
		l.d = make([]float64, b*l.out)
		if l.in > maxIn {
			maxIn = l.in
		}
	}
	if len(m.pack) < 4*maxIn {
		m.pack = make([]float64, 4*maxIn)
	}
	m.batchCap = b
}

// ForwardBatch runs inference on b row-major inputs (len(xs) must be
// b×InputSize) and returns the b×OutputSize row-major outputs. The
// returned slice is owned by the network and valid until the next forward
// pass. Row r of the result is bit-identical to ForwardRef on row r of
// the input.
func (m *MLP) ForwardBatch(xs []float64, b int) []float64 {
	in := m.layers[0].in
	if b < 1 {
		panic("nn: ForwardBatch needs a positive batch size")
	}
	if len(xs) != b*in {
		panic(fmt.Sprintf("nn: batch input size %d, want %d×%d", len(xs), b, in))
	}
	m.EnsureBatch(b)
	m.input = xs
	m.batchCur = b
	cur := xs
	for _, l := range m.layers {
		z := l.z[:b*l.out]
		m.matmulBias(z, cur, l.w, l.b, b, l.in, l.out)
		applyAct(l.act, l.y[:b*l.out], z)
		cur = l.y[:b*l.out]
	}
	return cur
}

// applyAct writes y = act(z) element-wise, with the switch hoisted out of
// the loop. Values match Activation.apply exactly.
func applyAct(act Activation, y, z []float64) {
	switch act {
	case Tanh:
		for i, v := range z {
			y[i] = math.Tanh(v)
		}
	case ReLU:
		for i, v := range z {
			if v < 0 {
				y[i] = 0
			} else {
				y[i] = v
			}
		}
	default:
		copy(y, z)
	}
}

// matmulBias computes z[r*out+o] = bias[o] + Σ_k x[r*in+k]·w[o*in+k] for
// r < b, o < out. With AVX2 and at least 4 outputs every batch goes
// through matmulVec: full 4-row groups use the 4×4 tile kernel and the
// remaining rows — a B=1 decision, or the b%4 tail of a batch — the
// 16-output row kernel. Everything else (and non-amd64 builds) uses
// the loop-blocked pure-Go kernel. All paths produce bit-identical
// results — the dispatch is a speed choice only, and the equivalence
// tests run both.
func (m *MLP) matmulBias(z, x, w, bias []float64, b, in, out int) {
	if useAVX2 && out >= colTile {
		matmulVec(z, x, w, bias, b, in, out, m.pack)
		return
	}
	matmulGo(z, x, w, bias, b, in, out)
}

// matmulVec is the AVX2 driver: for each group of 4 batch rows it packs
// the rows k-major (so one 32-byte load fetches the same input element of
// all 4 samples) and sweeps the weight matrix in 4-output tiles via
// mm44avx2. Rows left over when b%4 ≠ 0 go one at a time through
// matmulRowVec. When out%4 ≠ 0 the last tile starts at out−4 and
// recomputes a few outputs of the tile before it; a recomputed output
// runs the same operations on the same inputs, so rewriting it stores the
// same bits.
func matmulVec(z, x, w, bias []float64, b, in, out int, pack []float64) {
	r0 := 0
	for ; r0+4 <= b; r0 += 4 {
		x0 := x[r0*in : (r0+1)*in]
		x1 := x[(r0+1)*in : (r0+2)*in]
		x2 := x[(r0+2)*in : (r0+3)*in]
		x3 := x[(r0+3)*in : (r0+4)*in]
		xg := pack[: 4*in : 4*in]
		for k := 0; k < in; k++ {
			xg[k*4] = x0[k]
			xg[k*4+1] = x1[k]
			xg[k*4+2] = x2[k]
			xg[k*4+3] = x3[k]
		}
		for o0 := 0; o0 < out; o0 += 4 {
			o0 = min(o0, out-4)
			mm44avx2(&z[r0*out+o0], &xg[0], &w[o0*in], &bias[o0], int64(in), int64(out))
		}
	}
	for r := r0; r < b; r++ {
		matmulRowVec(z[r*out:(r+1)*out], x[r*in:(r+1)*in], w, bias, in, out)
	}
}

// matmulRowVec computes one row's outputs, z[o] = bias[o] + Σ_k x[k]·w[o*in+k].
// Layers of at least 16 outputs run mv16avx2 over 16-output blocks, the
// last block starting at out−16 and recomputing any overlap with the one
// before (same operations, same bits); narrower layers use the pure-Go
// row tiles.
func matmulRowVec(z, x, w, bias []float64, in, out int) {
	const block = 16
	if out < block {
		matmulGo(z, x, w, bias, 1, in, out)
		return
	}
	_, _ = w[out*in-1], bias[out-1]
	for o0 := 0; o0 < out; o0 += block {
		o0 = min(o0, out-block)
		mv16avx2(&z[o0], &x[0], &w[o0*in], &bias[o0], int64(in))
	}
}

// matmulGo is the portable kernel: an i/j/k loop-blocked matrix multiply.
// Each (r,o) accumulator adds its terms in strictly ascending k — the
// same order the scalar reference uses — so the result is bit-identical;
// k-bands park partial sums in z between passes (exact: float64
// store/load round-trips are lossless). Rows that do not fill a 4-row
// tile (a B=1 decision, the b%4 tail) still run 4 outputs at a time.
func matmulGo(z, x, w, bias []float64, b, in, out int) {
	for k0 := 0; k0 < in; k0 += kBand {
		kn := min(kBand, in-k0)
		first := k0 == 0
		for o0 := 0; o0 < out; o0 += colTile {
			on := min(colTile, out-o0)
			for r0 := 0; r0 < b; r0 += rowTile {
				rn := min(rowTile, b-r0)
				switch {
				case on == colTile && rn == rowTile:
					mm44(z, x, w, bias, r0, o0, k0, kn, in, out, first)
				case on == colTile:
					for r := r0; r < r0+rn; r++ {
						mm14(z, x, w, bias, r, o0, k0, kn, in, out, first)
					}
				default:
					mmTail(z, x, w, bias, r0, rn, o0, on, k0, kn, in, out, first)
				}
			}
		}
	}
}

// mm44 is the unrolled inner kernel: a 4×4 register tile of accumulators
// (4 batch rows × 4 outputs) swept along one k-band. The 16 independent
// chains turn the latency-bound scalar dot product into a
// throughput-bound kernel without touching summation order.
func mm44(z, x, w, bias []float64, r0, o0, k0, kn, in, out int, first bool) {
	x0 := x[r0*in+k0 : r0*in+k0+kn]
	x1 := x[(r0+1)*in+k0 : (r0+1)*in+k0+kn]
	x2 := x[(r0+2)*in+k0 : (r0+2)*in+k0+kn]
	x3 := x[(r0+3)*in+k0 : (r0+3)*in+k0+kn]
	w0 := w[o0*in+k0 : o0*in+k0+kn]
	w1 := w[(o0+1)*in+k0 : (o0+1)*in+k0+kn]
	w2 := w[(o0+2)*in+k0 : (o0+2)*in+k0+kn]
	w3 := w[(o0+3)*in+k0 : (o0+3)*in+k0+kn]

	var a00, a01, a02, a03 float64
	var a10, a11, a12, a13 float64
	var a20, a21, a22, a23 float64
	var a30, a31, a32, a33 float64
	if first {
		b0, b1, b2, b3 := bias[o0], bias[o0+1], bias[o0+2], bias[o0+3]
		a00, a01, a02, a03 = b0, b1, b2, b3
		a10, a11, a12, a13 = b0, b1, b2, b3
		a20, a21, a22, a23 = b0, b1, b2, b3
		a30, a31, a32, a33 = b0, b1, b2, b3
	} else {
		z0 := z[r0*out+o0:]
		z1 := z[(r0+1)*out+o0:]
		z2 := z[(r0+2)*out+o0:]
		z3 := z[(r0+3)*out+o0:]
		a00, a01, a02, a03 = z0[0], z0[1], z0[2], z0[3]
		a10, a11, a12, a13 = z1[0], z1[1], z1[2], z1[3]
		a20, a21, a22, a23 = z2[0], z2[1], z2[2], z2[3]
		a30, a31, a32, a33 = z3[0], z3[1], z3[2], z3[3]
	}
	for k := 0; k < kn; k++ {
		wv0, wv1, wv2, wv3 := w0[k], w1[k], w2[k], w3[k]
		xv := x0[k]
		a00 += xv * wv0
		a01 += xv * wv1
		a02 += xv * wv2
		a03 += xv * wv3
		xv = x1[k]
		a10 += xv * wv0
		a11 += xv * wv1
		a12 += xv * wv2
		a13 += xv * wv3
		xv = x2[k]
		a20 += xv * wv0
		a21 += xv * wv1
		a22 += xv * wv2
		a23 += xv * wv3
		xv = x3[k]
		a30 += xv * wv0
		a31 += xv * wv1
		a32 += xv * wv2
		a33 += xv * wv3
	}
	z0 := z[r0*out+o0:]
	z1 := z[(r0+1)*out+o0:]
	z2 := z[(r0+2)*out+o0:]
	z3 := z[(r0+3)*out+o0:]
	z0[0], z0[1], z0[2], z0[3] = a00, a01, a02, a03
	z1[0], z1[1], z1[2], z1[3] = a10, a11, a12, a13
	z2[0], z2[1], z2[2], z2[3] = a20, a21, a22, a23
	z3[0], z3[1], z3[2], z3[3] = a30, a31, a32, a33
}

// mm14 is the single-row kernel: one batch row against 4 outputs along
// one k-band, four independent accumulator chains instead of the one
// latency-bound chain per output of the scalar reference, each chain
// still bias first, then ascending k.
func mm14(z, x, w, bias []float64, r, o0, k0, kn, in, out int, first bool) {
	xr := x[r*in+k0 : r*in+k0+kn]
	w0 := w[o0*in+k0 : o0*in+k0+kn]
	w1 := w[(o0+1)*in+k0 : (o0+1)*in+k0+kn]
	w2 := w[(o0+2)*in+k0 : (o0+2)*in+k0+kn]
	w3 := w[(o0+3)*in+k0 : (o0+3)*in+k0+kn]
	zr := z[r*out+o0 : r*out+o0+4]
	var a0, a1, a2, a3 float64
	if first {
		a0, a1, a2, a3 = bias[o0], bias[o0+1], bias[o0+2], bias[o0+3]
	} else {
		a0, a1, a2, a3 = zr[0], zr[1], zr[2], zr[3]
	}
	for k, xv := range xr {
		a0 += xv * w0[k]
		a1 += xv * w1[k]
		a2 += xv * w2[k]
		a3 += xv * w3[k]
	}
	zr[0], zr[1], zr[2], zr[3] = a0, a1, a2, a3
}

// mmTail handles the ragged edges of the tile grid with plain loops, same
// accumulation order.
func mmTail(z, x, w, bias []float64, r0, rn, o0, on, k0, kn, in, out int, first bool) {
	for r := r0; r < r0+rn; r++ {
		xr := x[r*in+k0 : r*in+k0+kn]
		for o := o0; o < o0+on; o++ {
			wo := w[o*in+k0 : o*in+k0+kn]
			acc := z[r*out+o]
			if first {
				acc = bias[o]
			}
			for k, xv := range xr {
				acc += xv * wo[k]
			}
			z[r*out+o] = acc
		}
	}
}

// BackwardBatch accumulates gradients of 0.5·Σ(output − target)² for
// every row of the most recent ForwardBatch, in one pass. targets is
// b×OutputSize row-major; NaN components are masked out exactly as in the
// scalar path. b must match the batch size of the last forward pass. The
// accumulated gradients are bit-identical to calling the scalar reference
// (forward+backward) on each row in order: per (o,i) weight-gradient cell
// the sample contributions are added in ascending sample order, and
// zero-delta samples are skipped, both exactly as BackwardRef does.
func (m *MLP) BackwardBatch(targets []float64, b int) {
	if b != m.batchCur {
		panic(fmt.Sprintf("nn: BackwardBatch batch size %d, last forward pass had %d", b, m.batchCur))
	}
	last := m.layers[len(m.layers)-1]
	if len(targets) != b*last.out {
		panic(fmt.Sprintf("nn: batch target size %d, want %d×%d", len(targets), b, last.out))
	}
	outputDeltas(last, targets, b)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := m.layers[li]
		var prevY []float64
		var prevW int
		if li == 0 {
			prevY, prevW = m.input, l.in
		} else {
			prev := m.layers[li-1]
			prevY, prevW = prev.y[:b*prev.out], prev.out
		}
		accumGrads(l, prevY, prevW, b)
		if li > 0 {
			propagateDeltas(l, m.layers[li-1], b)
		}
	}
}

// outputDeltas fills the last layer's delta rows from the masked targets:
// d = (y − t)·act′(z,y), or 0 where t is NaN. Delta buffers are reused
// across calls, so masked components are written to zero, not skipped.
func outputDeltas(l *layer, targets []float64, b int) {
	n := b * l.out
	d, y, z := l.d[:n], l.y[:n], l.z[:n]
	for i, t := range targets {
		if t != t { // NaN mask
			d[i] = 0
			continue
		}
		d[i] = (y[i] - t) * l.act.derivative(z[i], y[i])
	}
}

// accumGrads adds the batch's weight/bias gradient contributions:
// gw[o][i] += Σ_r d[r][o]·prevY[r][i] and gb[o] += Σ_r d[r][o], with r
// strictly ascending per cell and zero-delta (r,o) pairs skipped — the
// scalar reference semantics. Four samples are fused per pass when all
// their deltas are live (the dense hidden-layer case); otherwise the live
// ones run as ordered axpys (the sparse masked-output case, where at most
// one action per sample carries error). With AVX2 both run four input
// indices per vector (gradAccum4avx2, axpyavx2), each lane the same
// ordered chain.
func accumGrads(l *layer, prevY []float64, in, b int) {
	out := l.out
	d := l.d
	r0 := 0
	for ; r0+rowTile <= b; r0 += rowTile {
		y0 := prevY[r0*in : r0*in+in]
		y1 := prevY[(r0+1)*in : (r0+1)*in+in]
		y2 := prevY[(r0+2)*in : (r0+2)*in+in]
		y3 := prevY[(r0+3)*in : (r0+3)*in+in]
		for o := 0; o < out; o++ {
			d0 := d[r0*out+o]
			d1 := d[(r0+1)*out+o]
			d2 := d[(r0+2)*out+o]
			d3 := d[(r0+3)*out+o]
			if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
				continue
			}
			grow := l.gw[o*in : o*in+in]
			if d0 != 0 && d1 != 0 && d2 != 0 && d3 != 0 {
				i := 0
				if useAVX2 && in >= 4 {
					i = in &^ 3
					dv := [4]float64{d0, d1, d2, d3}
					_ = y3[i-1]
					gradAccum4avx2(&grow[0], &y0[0], int64(in), &dv, int64(i))
				}
				for ; i < in; i++ {
					g := grow[i]
					g += d0 * y0[i]
					g += d1 * y1[i]
					g += d2 * y2[i]
					g += d3 * y3[i]
					grow[i] = g
				}
			} else {
				if d0 != 0 {
					axpy(grow, y0, d0)
				}
				if d1 != 0 {
					axpy(grow, y1, d1)
				}
				if d2 != 0 {
					axpy(grow, y2, d2)
				}
				if d3 != 0 {
					axpy(grow, y3, d3)
				}
			}
			gb := l.gb[o]
			if d0 != 0 {
				gb += d0
			}
			if d1 != 0 {
				gb += d1
			}
			if d2 != 0 {
				gb += d2
			}
			if d3 != 0 {
				gb += d3
			}
			l.gb[o] = gb
		}
	}
	for r := r0; r < b; r++ { // ragged tail, per sample in order
		yr := prevY[r*in : r*in+in]
		for o := 0; o < out; o++ {
			dv := d[r*out+o]
			if dv == 0 {
				continue
			}
			axpy(l.gw[o*in:o*in+in], yr, dv)
			l.gb[o] += dv
		}
	}
}

// axpy adds a·y into g element-wise, four elements per vector under AVX2.
func axpy(g, y []float64, a float64) {
	i := 0
	if n := len(y); useAVX2 && n >= 4 {
		i = n &^ 3
		_ = g[i-1]
		axpyavx2(&g[0], &y[0], a, int64(i))
	}
	for ; i < len(y); i++ {
		g[i] += a * y[i]
	}
}

// propagateDeltas computes the previous layer's batch deltas:
// prev.d[r][i] = (Σ_o d[r][o]·w[o][i])·act′, with the o-sum accumulated
// in ascending order and zero-delta outputs skipped, matching the scalar
// reference bit for bit. The sum runs as per-output axpys over contiguous
// weight rows instead of the reference's strided column walk, which is
// the same additions in the same per-element order.
func propagateDeltas(l, prev *layer, b int) {
	in, out := l.in, l.out
	for r := 0; r < b; r++ {
		drow := l.d[r*out : (r+1)*out]
		nd := prev.d[r*in : (r+1)*in]
		for i := range nd {
			nd[i] = 0
		}
		for o, dv := range drow {
			if dv == 0 {
				continue
			}
			axpy(nd, l.w[o*in:(o+1)*in], dv)
		}
		zrow := prev.z[r*in : (r+1)*in]
		yrow := prev.y[r*in : (r+1)*in]
		switch prev.act {
		case Tanh:
			for i := range nd {
				nd[i] *= 1 - yrow[i]*yrow[i]
			}
		case ReLU:
			for i := range nd {
				if zrow[i] < 0 {
					nd[i] = 0
				}
			}
		}
	}
}
