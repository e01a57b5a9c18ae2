//go:build amd64 && !purego

package statevec

// kernelAVX2 gates the hand-written AVX2 fast paths in kernels_amd64.s.
// It is a variable rather than a constant so the bit-identity tests can
// force the scalar bodies on AVX2 hardware (and confirm both paths agree
// with the frozen complex128 loops).
var kernelAVX2 = cpuHasAVX2()

// setKernelAVX2 flips the fast-path gate for tests and reports the
// previous value and whether the toggle is honoured on this build.
func setKernelAVX2(on bool) (old bool, ok bool) {
	old = kernelAVX2
	kernelAVX2 = on && cpuHasAVX2()
	return old, kernelAVX2 == on
}

// cpuHasAVX2 reports whether the CPU and OS support AVX2 (CPUID feature
// bit plus OSXSAVE/XGETBV confirmation that the OS saves YMM state).
func cpuHasAVX2() bool

//go:noescape
func mul1QAVX(loR, loI, hiR, hiI *float64, n int, m *[8]float64)

//go:noescape
func cscaleAVX(re, im *float64, n int, cr, ci float64)

//go:noescape
func cscalePatAVX(re, im *float64, n int, cr, ci *[4]float64)

//go:noescape
func antiAVX(loR, loI, hiR, hiI *float64, n int, c *[4]float64)

//go:noescape
func mul2QAVX(re, im *float64, n, b0, b1, lom, him int, mm *[32]float64)

//go:noescape
func mul2QPairsB0AVX(re, im *float64, n, hi int, mm *[32]float64)

//go:noescape
func mul2QPairsB1AVX(re, im *float64, n, hi int, mm *[32]float64)

//go:noescape
func mul2QGap2B0AVX(re, im *float64, n, hi int, mm *[32]float64)

//go:noescape
func mul2QGap2B1AVX(re, im *float64, n, hi int, mm *[32]float64)

//go:noescape
func mul2QQuadB0AVX(re, im *float64, n int, cols *[32]float64)

//go:noescape
func mul2QQuadB1AVX(re, im *float64, n int, cols *[32]float64)

//go:noescape
func gatherScaleAVX(dstR, dstI, srcR, srcI *float64, n, bit, outcome int, scale float64)

//go:noescape
func enterSpreadAVX(re, im *float64, size, bit int)

//go:noescape
func mul1QPairsAVX(re, im *float64, n int, m *[8]float64)

//go:noescape
func mul1QGap2AVX(re, im *float64, n int, m *[8]float64)

//go:noescape
func antiPairsAVX(re, im *float64, n int, c *[4]float64)

//go:noescape
func antiGap2AVX(re, im *float64, n int, c *[4]float64)

//go:noescape
func popsAVX1(pa *popArgs)

//go:noescape
func popsAVX2(pa *popArgs)

//go:noescape
func popsAVX4(pa *popArgs)
