package statevec

// This file holds the portable kernel layer of the SoA statevector: the
// scalar loop bodies and the dispatch wrappers that route long runs to
// the AVX2 assembly (kernels_amd64.s) when the CPU supports it.
//
// Bit-identity contract: every vector fast path performs exactly the
// float64 operations of its scalar body, lane by lane — complex multiply
// as (ac - bd, ad + bc), multi-term sums left-associated in matrix
// column order. The scalar bodies in turn replicate the frozen
// complex128 loops (frozen_test.go) operation for operation, so Counts
// and recorded thresholds are bit-identical no matter which path runs.
// Every reduction (Norm, ProbabilityOne, Kraus branch probabilities, the
// fused population passes of diag.go) adds its terms one at a time in
// ascending index order; a vector register may hold several separate
// chains side by side, never partial sums of one chain, since those
// would change the summation order.
//
// All run lengths in this package are powers of two, so a run of >= 4
// is always a multiple of 4 and the vector paths need no scalar tail;
// the wrappers keep a tail loop anyway as a guard.

// mul1QRuns applies a general 2x2 matrix (mat2SoA layout: m00r, m00i,
// m01r, m01i, m10r, m10i, m11r, m11i) to the paired runs lo/hi.
func mul1QRuns(loR, loI, hiR, hiI []float64, m *[8]float64) {
	n := len(loR)
	if kernelAVX2 && n >= 4 {
		v := n &^ 3
		mul1QAVX(&loR[0], &loI[0], &hiR[0], &hiI[0], v, m)
		if v == n {
			return
		}
		loR, loI = loR[v:], loI[v:]
		hiR, hiI = hiR[v:], hiI[v:]
	}
	scalarMul1Q(loR, loI, hiR, hiI, m)
}

func scalarMul1Q(loR, loI, hiR, hiI []float64, m *[8]float64) {
	m00r, m00i, m01r, m01i := m[0], m[1], m[2], m[3]
	m10r, m10i, m11r, m11i := m[4], m[5], m[6], m[7]
	loI = loI[:len(loR)]
	hiR = hiR[:len(loR)]
	hiI = hiI[:len(loR)]
	for i, a0r := range loR {
		a0i := loI[i]
		a1r := hiR[i]
		a1i := hiI[i]
		loR[i] = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
		loI[i] = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
		hiR[i] = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
		hiI[i] = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
	}
}

// cscaleRun multiplies a contiguous run by the complex scalar (cr + ci*i).
func cscaleRun(re, im []float64, cr, ci float64) {
	n := len(re)
	if kernelAVX2 && n >= 4 {
		v := n &^ 3
		cscaleAVX(&re[0], &im[0], v, cr, ci)
		if v == n {
			return
		}
		re, im = re[v:], im[v:]
	}
	scalarCScale(re, im, cr, ci)
}

func scalarCScale(re, im []float64, cr, ci float64) {
	im = im[:len(re)]
	for i, ar := range re {
		ai := im[i]
		re[i] = ar*cr - ai*ci
		im[i] = ar*ci + ai*cr
	}
}

// cscaleMove writes src times the complex scalar (cr + ci*i) to dst
// with cscaleRun's expressions. dst may alias src at or below it: each
// vector is read before any write lands on it.
func cscaleMove(dstR, dstI, srcR, srcI []float64, cr, ci float64) {
	n := len(srcR)
	if kernelAVX2 && n >= 4 {
		v := n &^ 3
		cscaleMoveAVX(&dstR[0], &dstI[0], &srcR[0], &srcI[0], v, cr, ci)
		if v == n {
			return
		}
		dstR, dstI, srcR, srcI = dstR[v:], dstI[v:], srcR[v:], srcI[v:]
	}
	srcI = srcI[:len(srcR)]
	dstR = dstR[:len(srcR)]
	dstI = dstI[:len(srcR)]
	for i, ar := range srcR {
		ai := srcI[i]
		dstR[i] = ar*cr - ai*ci
		dstI[i] = ar*ci + ai*cr
	}
}

// cscalePattern multiplies amplitude i by the complex scalar
// (cr[i&3] + ci[i&3]*i). Diagonal kernels whose stride is below the
// vector width reduce to this: the coefficient pattern repeats every 2
// or 4 amplitudes, so one unit-stride pass covers the whole array. The
// caller guarantees the pattern period divides 4 (or that len < 4).
func cscalePattern(re, im []float64, cr, ci *[4]float64) {
	n := len(re)
	start := 0
	if kernelAVX2 && n >= 4 {
		v := n &^ 3
		cscalePatAVX(&re[0], &im[0], v, cr, ci)
		if v == n {
			return
		}
		start = v
	}
	scalarCScalePattern(re, im, start, cr, ci)
}

func scalarCScalePattern(re, im []float64, start int, cr, ci *[4]float64) {
	for i := start; i < len(re); i++ {
		ar := re[i]
		ai := im[i]
		dr := cr[i&3]
		di := ci[i&3]
		re[i] = ar*dr - ai*di
		im[i] = ar*di + ai*dr
	}
}

// antiRuns applies the anti-diagonal matrix [[0, a01], [a10, 0]]
// (c = a01r, a01i, a10r, a10i) to the paired runs lo/hi.
func antiRuns(loR, loI, hiR, hiI []float64, c *[4]float64) {
	n := len(loR)
	if kernelAVX2 && n >= 4 {
		v := n &^ 3
		antiAVX(&loR[0], &loI[0], &hiR[0], &hiI[0], v, c)
		if v == n {
			return
		}
		loR, loI = loR[v:], loI[v:]
		hiR, hiI = hiR[v:], hiI[v:]
	}
	scalarAnti(loR, loI, hiR, hiI, c)
}

func scalarAnti(loR, loI, hiR, hiI []float64, c *[4]float64) {
	a01r, a01i, a10r, a10i := c[0], c[1], c[2], c[3]
	loI = loI[:len(loR)]
	hiR = hiR[:len(loR)]
	hiI = hiI[:len(loR)]
	for i, a0r := range loR {
		a0i := loI[i]
		a1r := hiR[i]
		a1i := hiI[i]
		loR[i] = a01r*a1r - a01i*a1i
		loI[i] = a01r*a1i + a01i*a1r
		hiR[i] = a10r*a0r - a10i*a0i
		hiI[i] = a10r*a0i + a10i*a0r
	}
}

// mul2QRuns applies a general 4x4 matrix (mat4SoA layout) to the run of
// `lo` base indices starting at i1; the four matrix-basis roles live at
// offsets 0, b0, b1, b0|b1 from each base.
func mul2QRuns(re, im []float64, i1, lo, b0, b1 int, mm *[32]float64) {
	if kernelAVX2 && lo >= 4 {
		mul2QAVX(
			&re[i1], &im[i1],
			&re[i1+b0], &im[i1+b0],
			&re[i1+b1], &im[i1+b1],
			&re[i1+b0+b1], &im[i1+b0+b1],
			lo, mm)
		return
	}
	scalarMul2Q(re, im, i1, lo, b0, b1, mm)
}

func scalarMul2Q(re, im []float64, i1, lo, b0, b1 int, mm *[32]float64) {
	for base := i1; base < i1+lo; base++ {
		idx := [4]int{base, base | b0, base | b1, base | b0 | b1}
		var inR, inI [4]float64
		for k := 0; k < 4; k++ {
			inR[k] = re[idx[k]]
			inI[k] = im[idx[k]]
		}
		for r := 0; r < 4; r++ {
			o := r * 8
			t0r := mm[o]*inR[0] - mm[o+1]*inI[0]
			t0i := mm[o]*inI[0] + mm[o+1]*inR[0]
			t1r := mm[o+2]*inR[1] - mm[o+3]*inI[1]
			t1i := mm[o+2]*inI[1] + mm[o+3]*inR[1]
			t2r := mm[o+4]*inR[2] - mm[o+5]*inI[2]
			t2i := mm[o+4]*inI[2] + mm[o+5]*inR[2]
			t3r := mm[o+6]*inR[3] - mm[o+7]*inI[3]
			t3i := mm[o+6]*inI[3] + mm[o+7]*inR[3]
			re[idx[r]] = ((t0r + t1r) + t2r) + t3r
			im[idx[r]] = ((t0i + t1i) + t2i) + t3i
		}
	}
}

// mul2QPairs handles the lo == 1 layout of Apply2Q: one target qubit is
// bit 0, so each half of an i2 block interleaves two matrix-basis role
// streams at stride 2 (even = qubit-0-clear, odd = qubit-0-set). The
// AVX2 kernels deinterleave the halves in registers; role order — and
// with it the frozen loop's summation order — depends on whether the
// interleaved qubit is q0 (matrix low bit) or q1, hence two variants.
// Only called when kernelAVX2 is set and the halves are >= 8 floats.
func mul2QPairs(loR, loI, hiR, hiI []float64, b0low bool, mm *[32]float64) {
	if b0low {
		mul2QPairsB0AVX(&loR[0], &loI[0], &hiR[0], &hiI[0], len(loR), mm)
		return
	}
	mul2QPairsB1AVX(&loR[0], &loI[0], &hiR[0], &hiI[0], len(loR), mm)
}

// perm2QRuns applies a permutation-with-phases matrix (Perm4) to the run
// of `lo` base indices starting at i1. Always scalar: one multiply per
// amplitude is gather-bound, not arithmetic-bound.
func perm2QRuns(re, im []float64, i1, lo, b0, b1 int, src *[4]uint8, c *[8]float64) {
	for base := i1; base < i1+lo; base++ {
		idx := [4]int{base, base | b0, base | b1, base | b0 | b1}
		var inR, inI [4]float64
		for k := 0; k < 4; k++ {
			inR[k] = re[idx[k]]
			inI[k] = im[idx[k]]
		}
		for r := 0; r < 4; r++ {
			cr := c[r*2]
			ci := c[r*2+1]
			sr := inR[src[r]]
			si := inI[src[r]]
			re[idx[r]] = cr*sr - ci*si
			im[idx[r]] = cr*si + ci*sr
		}
	}
}
