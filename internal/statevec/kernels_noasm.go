//go:build !amd64 || purego

package statevec

// kernelAVX2 is constant false off amd64 (and under the purego tag, which
// forces the scalar bodies on any architecture so CI can exercise the
// portable fallback): the dispatch branches in kernels.go compile away
// and only the scalar bodies remain.
const kernelAVX2 = false

// setKernelAVX2 is a no-op on this build; ok reports whether the
// requested value is in effect.
func setKernelAVX2(on bool) (old bool, ok bool) {
	return false, !on
}

// The assembly entry points are unreachable with kernelAVX2 == false;
// these stubs exist only to satisfy the compiler.

func mul1QAVX(loR, loI, hiR, hiI *float64, n int, m *[8]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func cscaleAVX(re, im *float64, n int, cr, ci float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func cscalePatAVX(re, im *float64, n int, cr, ci *[4]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func antiAVX(loR, loI, hiR, hiI *float64, n int, c *[4]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QAVX(re, im *float64, n, b0, b1, lom, him int, mm *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QPairsB0AVX(re, im *float64, n, hi int, mm *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QPairsB1AVX(re, im *float64, n, hi int, mm *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QGap2B0AVX(re, im *float64, n, hi int, mm *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QGap2B1AVX(re, im *float64, n, hi int, mm *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QQuadB0AVX(re, im *float64, n int, cols *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul2QQuadB1AVX(re, im *float64, n int, cols *[32]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func gatherScaleAVX(dstR, dstI, srcR, srcI *float64, n, bit, outcome int, scale float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func enterSpreadAVX(re, im *float64, size, bit int) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul1QPairsAVX(re, im *float64, n int, m *[8]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func mul1QGap2AVX(re, im *float64, n int, m *[8]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func antiPairsAVX(re, im *float64, n int, c *[4]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func antiGap2AVX(re, im *float64, n int, c *[4]float64) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func popsAVX1(pa *popArgs) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func popsAVX2(pa *popArgs) {
	panic("statevec: AVX2 kernel on scalar-only build")
}

func popsAVX4(pa *popArgs) {
	panic("statevec: AVX2 kernel on scalar-only build")
}
