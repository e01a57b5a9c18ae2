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

// scalarMul2Q applies a general 4x4 matrix (mat4SoA layout) to the run
// of `lo` base indices starting at i1; the four matrix-basis roles live
// at offsets 0, b0, b1, b0|b1 from each base.
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

// mul2QLow runs a dense 4x4 whose lower qubit sits below the vector
// width (lo = 1 or 2, qubit 0 or 1) through its AVX2 kernel, over the
// longest prefix of the non-empty flat array the kernel's step
// divides, and returns that prefix's length; the caller finishes the
// rest — shorter than one step, which happens only on a Batch whose
// lanes are narrower than the step — with the stride loop. b0low
// reports whether q0, the matrix low bit, is the lower qubit: role
// order in a vector, and with it which stream feeds which matrix
// column, depends on it, hence two variants of each kernel. Only called
// when kernelAVX2 is set.
//
//   - lo = 1, hi = 2 (mul2QQuad*): each 4-amplitude block is one base's
//     four roles, so one vector is one base; steps of 4 amplitudes.
//   - lo = 1, hi >= 4 (mul2QPairs*): the lower and upper halves of each
//     2*hi block each interleave two role streams at stride 2; steps of
//     8 amplitudes from each half (two blocks' halves when hi = 4).
//   - lo = 2, hi >= 4 (mul2QGap2*): as the pairs kernels, with each
//     stream pair the 128-bit halves of 4-amplitude blocks.
func mul2QLow(re, im []float64, lo, hi int, b0low bool, mm *[32]float64) int {
	n := len(re)
	im = im[:n]
	if hi == 2 {
		// Blocks of 4 amplitudes tile every flat array of lanes of 2 or
		// more qubits.
		var cols [32]float64
		quadCols(&cols, mm, b0low)
		if b0low {
			mul2QQuadB0AVX(&re[0], &im[0], n, &cols)
		} else {
			mul2QQuadB1AVX(&re[0], &im[0], n, &cols)
		}
		return n
	}
	v := n &^ (max(16, 2*hi) - 1)
	if v == 0 {
		return 0
	}
	switch {
	case lo == 1 && b0low:
		mul2QPairsB0AVX(&re[0], &im[0], v, hi, mm)
	case lo == 1:
		mul2QPairsB1AVX(&re[0], &im[0], v, hi, mm)
	case b0low:
		mul2QGap2B0AVX(&re[0], &im[0], v, hi, mm)
	default:
		mul2QGap2B1AVX(&re[0], &im[0], v, hi, mm)
	}
	return v
}

// quadCols lays a mat4SoA matrix out in cols for mul2QQuad*: for each
// matrix column c, the real parts of 4 lanes, then their imaginary
// parts, lane l holding the entry in the row of the role block lane l
// holds — role l, or with q0 at qubit 1 (b0low false) roles 0, 2, 1, 3.
func quadCols(cols, mm *[32]float64, b0low bool) {
	rows := [4]int{0, 1, 2, 3}
	if !b0low {
		rows = [4]int{0, 2, 1, 3}
	}
	for c := 0; c < 4; c++ {
		for l, r := range rows {
			cols[c*8+l] = mm[r*8+2*c]
			cols[c*8+4+l] = mm[r*8+2*c+1]
		}
	}
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
