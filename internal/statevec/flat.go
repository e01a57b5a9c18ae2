package statevec

// Flat kernels: every gate application in this package reduces to a pass
// over one flat pair of re/im arrays whose block structure depends only
// on the target qubit bits — never on where the array ends. Because a
// lane (one statevector) is 2^n amplitudes and every block period
// (2*bit, 2*hi) divides 2^n, the same pass applied to B back-to-back
// lanes of a Batch is exactly B independent per-lane applications. State
// methods call these with their own 2^n-long arrays; Batch methods call
// them with the live lanes' B*2^n-long prefix. That is what makes the
// batched replay kernels (Apply1QBatch and friends) bit-identical to a
// lane-by-lane loop: amplitude i of lane k sees the exact FP op sequence
// of the frozen complex128 loops either way.
//
// On AVX2 hardware every kernel makes one assembly call per flat array,
// or one per run where runs are 4 or more amplitudes long; a target bit
// below the vector width (bit 1 or 2 — qubits 0 and 1) has no such runs,
// and each layout takes its own treatment:
//
//   - 1Q general and anti-diagonal: pair-deinterleave (bit 1) and
//     128-bit-half (bit 2) kernels, mul1QPairsAVX / mul1QGap2AVX and
//     antiPairsAVX / antiGap2AVX.
//   - Diagonals (1Q, and 2Q with a bit below 4): coefficient-pattern
//     passes (cscalePattern), since a diagonal acts elementwise.
//   - 2Q general: mul2QLow's kernels — one vector per base for qubits 0
//     and 1 (mul2QQuad*), and role streams split out of each block's
//     halves for qubit 0 or 1 with a higher qubit (mul2QPairs*,
//     mul2QGap2*); lower qubits at bit 4 and above take mul2QAVX, one
//     pass over every base.
//   - 2Q permutations: always the scalar body, which is gather-bound.
//
// Terminal drops (gatherScale, diag.go) and lazy entries (enterSpread,
// enter.go) have one-pass kernels of their own for the same reason. A
// Batch's flat array is lanes × 2^n long, so with narrow lanes it can
// end short of a kernel's step; the scalar body finishes that tail.

// flat1QGeneral applies a general 2x2 matrix (mat2SoA layout) on the
// qubit with bit mask `bit` across the whole flat array.
func flat1QGeneral(re, im []float64, bit int, mm *[8]float64) {
	n := len(re)
	if kernelAVX2 && bit < 4 && n >= 8 {
		// Runs of 1 or 2: deinterleave the role streams in registers.
		// v is a multiple of 8, so it is block-aligned for both layouts
		// and the tail (< 8 floats) falls through to the scalar runs.
		v := n &^ 7
		if bit == 1 {
			mul1QPairsAVX(&re[0], &im[0], v, mm)
		} else {
			mul1QGap2AVX(&re[0], &im[0], v, mm)
		}
		if v == n {
			return
		}
		re, im = re[v:], im[v:]
		n -= v
	}
	// Stride loop: enumerate only the base indices with the qubit clear,
	// as contiguous runs of length `bit`.
	for blk := 0; blk < n; blk += bit << 1 {
		mul1QRuns(
			re[blk:blk+bit:blk+bit], im[blk:blk+bit:blk+bit],
			re[blk+bit:blk+(bit<<1):blk+(bit<<1)], im[blk+bit:blk+(bit<<1):blk+(bit<<1)],
			mm)
	}
}

// flat1QDiag applies diag(d0, d1) on the qubit with bit mask `bit`.
func flat1QDiag(re, im []float64, bit int, d0, d1 complex128) {
	n := len(re)
	if bit < 4 {
		// Runs too short for the vector kernel individually, but the
		// coefficient pattern repeats every 2*bit amplitudes, so one
		// pattern-vector pass covers the whole array.
		var cr, ci [4]float64
		for i := 0; i < 4; i++ {
			if i&bit == 0 {
				cr[i], ci[i] = real(d0), imag(d0)
			} else {
				cr[i], ci[i] = real(d1), imag(d1)
			}
		}
		cscalePattern(re, im, &cr, &ci)
		return
	}
	for blk := 0; blk < n; blk += bit << 1 {
		cscaleRun(re[blk:blk+bit:blk+bit], im[blk:blk+bit:blk+bit], real(d0), imag(d0))
		cscaleRun(re[blk+bit:blk+(bit<<1):blk+(bit<<1)], im[blk+bit:blk+(bit<<1):blk+(bit<<1)], real(d1), imag(d1))
	}
}

// flat1QAnti applies the anti-diagonal matrix [[0, a01], [a10, 0]]
// (c = a01r, a01i, a10r, a10i) on the qubit with bit mask `bit`.
func flat1QAnti(re, im []float64, bit int, c *[4]float64) {
	n := len(re)
	if kernelAVX2 && bit < 4 && n >= 8 {
		v := n &^ 7
		if bit == 1 {
			antiPairsAVX(&re[0], &im[0], v, c)
		} else {
			antiGap2AVX(&re[0], &im[0], v, c)
		}
		if v == n {
			return
		}
		re, im = re[v:], im[v:]
		n -= v
	}
	for blk := 0; blk < n; blk += bit << 1 {
		antiRuns(
			re[blk:blk+bit:blk+bit], im[blk:blk+bit:blk+bit],
			re[blk+bit:blk+(bit<<1):blk+(bit<<1)], im[blk+bit:blk+(bit<<1):blk+(bit<<1)],
			c)
	}
}

// flat2QGeneral applies a general 4x4 matrix (mat4SoA layout) on the
// ordered qubit bit masks (b0, b1).
func flat2QGeneral(re, im []float64, b0, b1 int, mm *[32]float64) {
	lo, hi := b0, b1
	if lo > hi {
		lo, hi = hi, lo
	}
	n := len(re)
	if kernelAVX2 && n > 0 {
		if lo >= 4 {
			// Role streams are runs of lo >= 4: one pass walks every base.
			mul2QAVX(&re[0], &im[:n][0], n, b0, b1, lo-1, hi-1, mm)
			return
		}
		v := mul2QLow(re, im, lo, hi, b0 == lo, mm)
		if v == n {
			return
		}
		re, im = re[v:], im[v:]
		n -= v
	}
	// Stride loop: enumerate only the base indices with both qubits
	// clear via three nested strides.
	for i2 := 0; i2 < n; i2 += hi << 1 {
		for i1 := i2; i1 < i2+hi; i1 += lo << 1 {
			scalarMul2Q(re, im, i1, lo, b0, b1, mm)
		}
	}
}

// flat2QDiag applies diag(d) on the ordered qubit bit masks (b0, b1),
// where the matrix basis index is (bit b0) + 2*(bit b1).
func flat2QDiag(re, im []float64, b0, b1 int, d [4]complex128) {
	lo, hi := b0, b1
	if lo > hi {
		lo, hi = hi, lo
	}
	n := len(re)
	if hi < 4 {
		// Both qubits inside one 4-amplitude block: a single pattern pass
		// covers the whole array.
		var cr, ci [4]float64
		for i := 0; i < 4; i++ {
			k := 0
			if i&b0 != 0 {
				k |= 1
			}
			if i&b1 != 0 {
				k |= 2
			}
			cr[i], ci[i] = real(d[k]), imag(d[k])
		}
		cscalePattern(re, im, &cr, &ci)
		return
	}
	if lo < 4 {
		// The diagonal acts elementwise, so short inner runs reduce to a
		// coefficient pattern of period 2*lo applied to each half-block:
		// the low half holds matrix entries {0, lo-bit}, the high half
		// {hi-bit, both}.
		kHi := 2 // d-index contribution of the hi bit: +1 if q0, +2 if q1
		if hi == b0 {
			kHi = 1
		}
		var loCr, loCi, hiCr, hiCi [4]float64
		for i := 0; i < 4; i++ {
			k := 0
			if i&lo != 0 {
				k = 3 - kHi // the lo-bit entry index
			}
			loCr[i], loCi[i] = real(d[k]), imag(d[k])
			hiCr[i], hiCi[i] = real(d[k|kHi]), imag(d[k|kHi])
		}
		for i2 := 0; i2 < n; i2 += hi << 1 {
			cscalePattern(re[i2:i2+hi:i2+hi], im[i2:i2+hi:i2+hi], &loCr, &loCi)
			cscalePattern(re[i2+hi:i2+(hi<<1):i2+(hi<<1)], im[i2+hi:i2+(hi<<1):i2+(hi<<1)], &hiCr, &hiCi)
		}
		return
	}
	for i2 := 0; i2 < n; i2 += hi << 1 {
		for i1 := i2; i1 < i2+hi; i1 += lo << 1 {
			cscaleRun(re[i1:i1+lo:i1+lo], im[i1:i1+lo:i1+lo], real(d[0]), imag(d[0]))
			j := i1 + b0
			cscaleRun(re[j:j+lo:j+lo], im[j:j+lo:j+lo], real(d[1]), imag(d[1]))
			j = i1 + b1
			cscaleRun(re[j:j+lo:j+lo], im[j:j+lo:j+lo], real(d[2]), imag(d[2]))
			j = i1 + b0 + b1
			cscaleRun(re[j:j+lo:j+lo], im[j:j+lo:j+lo], real(d[3]), imag(d[3]))
		}
	}
}

// flat2QPerm applies a permutation-with-phases matrix on the ordered
// qubit bit masks (b0, b1).
func flat2QPerm(re, im []float64, b0, b1 int, src *[4]uint8, c *[8]float64) {
	lo, hi := b0, b1
	if lo > hi {
		lo, hi = hi, lo
	}
	n := len(re)
	for i2 := 0; i2 < n; i2 += hi << 1 {
		for i1 := i2; i1 < i2+hi; i1 += lo << 1 {
			perm2QRuns(re, im, i1, lo, b0, b1, src, c)
		}
	}
}
