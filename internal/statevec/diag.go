package statevec

import (
	"fmt"
	"math"
)

// Pending diagonal updates and fused population passes.
//
// A trajectory engine that draws a diagonal update — a damping branch
// pre-scaled by 1/sqrt(p), an idle RZ, a ZZ crosstalk step — need not
// sweep the register for it right away. It can keep the update pending
// and hand it to the next population pass, which multiplies each
// amplitude by the update's coefficient with cscaleRun's expressions
// (re' = ar*cr - ai*ci, im' = ar*ci + ai*cr), stores it, and adds its
// squared magnitude to p0 or p1. A diagonal update acts elementwise, so
// applying a pending list amplitude by amplitude performs, on every
// amplitude, exactly the float operations of one sweep per update in
// list order; and the population sums visit the amplitudes in ascending
// index, so p0 and p1 are the chains KrausBranchProbs1Q sums, p1 is
// ProbabilityOne's and the kept half's sum is projectQubit's norm.
// Every result is therefore bit-identical to the unfused sequence
// (ApplyDiags, then the population pass), which fused_test.go pins.
//
// The AVX2 passes (popsAVX1/2/4) vectorize the multiplies and squares
// and keep each chain's adds in order: a vector register holds the
// running sums of separate chains — one per stream, a stream being one
// lane or one half of a lane — never partial sums of one chain.

// MaxPending is the longest pending list a population pass applies.
const MaxPending = 4

// Diag is one diagonal update of a register: amplitude b is multiplied
// by coefficient k = (bit b0 of b) + 2*(bit b1 of b). b0 == 0 scales
// the whole register; b1 == 0 acts on one qubit. The coefficients are
// kept laid out as the population passes read them: rows[h] holds, for
// an aligned 4-amplitude vector whose index has the update's bits at 4
// and above as h says (bit 0: b0, bit 1: b1), the 4 amplitudes' real
// parts, then their imaginary parts. A bit below 4 varies inside the
// vector, so each row already holds its pattern. A Diag is 272 bytes,
// so callers build one in place (SetScale, Set1Q, Set2Q) where it is
// kept, such as a slot of a pending list.
type Diag struct {
	b0, b1 int
	rows   [4][8]float64
}

// set lays out coefficients c (indexed by k) for bits b0, b1, filling
// only the rows a vector index can select. SetScale and Set1Q write the
// same rows directly.
func (d *Diag) set(b0, b1 int, c *[4]complex128) {
	d.b0, d.b1 = b0, b1
	h0, h1 := highBit(b0), highBit(b1)
	for h := range d.rows {
		x := 0
		if h&1 != 0 {
			if h0 == 0 {
				continue
			}
			x |= h0
		}
		if h&2 != 0 {
			if h1 == 0 {
				continue
			}
			x |= h1
		}
		row := &d.rows[h]
		for i := 0; i < 4; i++ {
			k := 0
			if (x|i)&b0 != 0 {
				k = 1
			}
			if (x|i)&b1 != 0 {
				k |= 2
			}
			row[i], row[4+i] = real(c[k]), imag(c[k])
		}
	}
}

// highBit returns b when it selects whole vectors (b >= 4), else 0.
func highBit(b int) int {
	if b >= 4 {
		return b
	}
	return 0
}

// SetScale makes d the update that multiplies every amplitude by c, as
// State.Scale does: a diagonal unitary or damping branch on a qubit
// outside the register.
func (d *Diag) SetScale(c complex128) {
	d.b0, d.b1 = 0, 0
	d.rows[0] = [8]float64{real(c), real(c), real(c), real(c), imag(c), imag(c), imag(c), imag(c)}
}

// Set1Q makes d the update Apply1QDiag(d0, d1, q) performs.
func (d *Diag) Set1Q(d0, d1 complex128, q int) {
	if q < 0 || q >= MaxQubits {
		panic(fmt.Sprintf("statevec: qubit %d out of range", q))
	}
	d.b0, d.b1 = 1<<uint(q), 0
	r0, i0, r1, i1 := real(d0), imag(d0), real(d1), imag(d1)
	switch q {
	case 0:
		d.rows[0] = [8]float64{r0, r1, r0, r1, i0, i1, i0, i1}
	case 1:
		d.rows[0] = [8]float64{r0, r0, r1, r1, i0, i0, i1, i1}
	default:
		d.rows[0] = [8]float64{r0, r0, r0, r0, i0, i0, i0, i0}
		d.rows[1] = [8]float64{r1, r1, r1, r1, i1, i1, i1, i1}
	}
}

// Set2Q makes d the update Apply2QDiag(c, q0, q1) performs.
func (d *Diag) Set2Q(c [4]complex128, q0, q1 int) {
	if q0 < 0 || q0 >= MaxQubits || q1 < 0 || q1 >= MaxQubits || q0 == q1 {
		panic(fmt.Sprintf("statevec: bad qubit pair (%d, %d)", q0, q1))
	}
	d.set(1<<uint(q0), 1<<uint(q1), &c)
}

// sameShape reports whether two updates read the same qubits, so one
// pass can select both coefficients with one index computation.
func (d *Diag) sameShape(e *Diag) bool { return d.b0 == e.b0 && d.b1 == e.b1 }

// coef returns the update's coefficient for amplitude index i.
func (d *Diag) coef(i int) (cr, ci float64) {
	h := 0
	if i&highBit(d.b0) != 0 {
		h = 1
	}
	if i&highBit(d.b1) != 0 {
		h |= 2
	}
	return d.rows[h][i&3], d.rows[h][4+i&3]
}

// at returns coefficient k as a complex number.
func (d *Diag) at(k int) complex128 {
	i := 0
	if k&1 != 0 {
		i |= d.b0
	}
	if k&2 != 0 {
		i |= d.b1
	}
	cr, ci := d.coef(i)
	return complex(cr, ci)
}

// applyTo sweeps the update over one register through the unfused
// diagonal kernels.
func (d *Diag) applyTo(re, im []float64) {
	switch {
	case d.b0 == 0:
		c := d.at(0)
		cscaleRun(re, im, real(c), imag(c))
	case d.b1 == 0:
		flat1QDiag(re, im, d.b0, d.at(0), d.at(1))
	default:
		flat2QDiag(re, im, d.b0, d.b1, [4]complex128{d.at(0), d.at(1), d.at(2), d.at(3)})
	}
}

func (s *State) checkDiags(ds []Diag) {
	if len(ds) > MaxPending {
		panic(fmt.Sprintf("statevec: %d pending updates, limit %d", len(ds), MaxPending))
	}
	for i := range ds {
		if ds[i].b0 >= len(s.re) || ds[i].b1 >= len(s.re) {
			panic(fmt.Sprintf("statevec: pending update outside a %d-qubit register", s.n))
		}
	}
}

// ApplyDiags applies ds in order, one sweep each, through the kernels
// Apply1QDiag, Apply2QDiag and Scale use: the flush of a pending list.
func (s *State) ApplyDiags(ds []Diag) {
	s.checkDiags(ds)
	for i := range ds {
		ds[i].applyTo(s.re, s.im)
	}
}

// PopsAfter applies ds to the register and returns the populations of
// qubit q in the same pass: p0 sums |a_b|^2 over the amplitudes with
// the qubit clear and p1 over those with it set, each in ascending b.
// q == -1 names a qubit outside the register, which is exactly |0>: p0
// is then the register's population and p1 is +0. The result equals
// ApplyDiags(ds) followed by KrausBranchProbs1Q's population pass (or
// the register population for q == -1), bit for bit.
func (s *State) PopsAfter(ds []Diag, q int) (p0, p1 float64) {
	s.checkDiags(ds)
	pb := 0
	if q != -1 {
		s.checkQubit(q)
		pb = 1 << uint(q)
	}
	if !kernelAVX2 || len(s.re) < 4 {
		return popsScalar(s.re, s.im, ds, pb)
	}
	var pa popArgs
	lanes, lists := [1]int{0}, [1][]Diag{ds}
	var p0s, p1s [1]float64
	pa.run(s.re, s.im, len(s.re), lanes[:], lists[:], pb, p0s[:], p1s[:])
	return p0s[0], p1s[0]
}

// PopsLanes is PopsAfter on several live lanes at once: lane lanes[i]
// applies ds[i], and its populations of qubit q (-1: outside the
// register) land in p0[i] and p1[i]. Each lane's results are exactly
// PopsAfter's. On AVX2 hardware consecutive lanes whose lists read the
// same qubits share a pass, which keeps up to four lanes' chains in
// vector registers side by side.
func (b *Batch) PopsLanes(lanes []int, ds [][]Diag, q int, p0, p1 []float64) {
	if len(ds) != len(lanes) || len(p0) < len(lanes) || len(p1) < len(lanes) {
		panic("statevec: PopsLanes operand lengths differ")
	}
	pb := 0
	if q != -1 {
		b.checkQubit(q)
		pb = 1 << uint(q)
	}
	for i, l := range lanes {
		b.Lane(l).checkDiags(ds[i])
	}
	if !kernelAVX2 || b.n < 2 {
		for i, l := range lanes {
			p0[i], p1[i] = popsScalar(b.views[l].re, b.views[l].im, ds[i], pb)
		}
		return
	}
	var pa popArgs
	pa.run(b.re, b.im, 1<<uint(b.n), lanes, ds, pb, p0, p1)
}

// Collapse projects qubit q onto outcome, with norm the population of
// the kept half: the p0 or p1 the pass that drew the outcome returned
// (PopsAfter with no update pending since). It leaves the amplitudes
// Project (ProjectDrop when drop is set) leaves, skipping their norm
// pass, whose sum is the same chain. q == -1 names a qubit outside the
// register: its outcome is 0, and Collapse renormalizes the register as
// Renormalize does, with norm the register's population.
func (s *State) Collapse(q, outcome int, norm float64, drop bool) {
	if norm <= 0 {
		panic("statevec: projection onto zero-probability outcome")
	}
	scale := 1 / math.Sqrt(norm)
	if q == -1 {
		if outcome != 0 {
			panic("statevec: qubit outside the register observed 1")
		}
		cscaleRun(s.re, s.im, scale, 0)
		return
	}
	s.checkQubit(q)
	if outcome != 0 && outcome != 1 {
		panic(fmt.Sprintf("statevec: Collapse with outcome %d", outcome))
	}
	bit := 1 << uint(q)
	if drop {
		if s.buf == nil {
			panic("statevec: ProjectDrop on a batch lane view")
		}
		gatherScale(s.re, s.im, s.re, s.im, bit, outcome, scale)
		s.carve(s.n - 1)
		return
	}
	for blk := 0; blk < len(s.re); blk += bit << 1 {
		gone := blk + (1-outcome)*bit
		clear(s.re[gone : gone+bit])
		clear(s.im[gone : gone+bit])
	}
	cscaleRun(s.re, s.im, scale, 0)
}

// gatherScale is projectDrop after its norm pass: it gathers the
// amplitudes of srcR/srcI whose `bit` equals outcome into dstR/dstI and
// scales them by (scale + 0i) with cscaleRun's expressions as they
// move. dst may alias the start of src, as in projectDrop: each
// amplitude is read before any write lands on it. On AVX2 hardware one
// pass covers the register (gatherScaleAVX).
func gatherScale(dstR, dstI, srcR, srcI []float64, bit, outcome int, scale float64) {
	n := len(srcR)
	srcI = srcI[:n]
	dstR, dstI = dstR[:n/2], dstI[:n/2]
	if kernelAVX2 && n >= 8 {
		gatherScaleAVX(&dstR[0], &dstI[0], &srcR[0], &srcI[0], n, bit, outcome, scale)
		return
	}
	j := 0
	for blk := outcome * bit; blk < n; blk += bit << 1 {
		for i := blk; i < blk+bit; i++ {
			ar, ai := srcR[i], srcI[i]
			dstR[j] = ar*scale - ai*0
			dstI[j] = ar*0 + ai*scale
			j++
		}
	}
}

// popsScalar is the portable body of the fused pass on one register:
// each amplitude in ascending index takes every update in list order,
// is stored, and adds its squared magnitude to p0 or p1 by bit pb
// (pb == 0: all to p0).
func popsScalar(re, im []float64, ds []Diag, pb int) (p0, p1 float64) {
	im = im[:len(re)]
	for i, ar := range re {
		ai := im[i]
		for j := range ds {
			cr, ci := ds[j].coef(i)
			ar, ai = ar*cr-ai*ci, ar*ci+ai*cr
		}
		re[i] = ar
		im[i] = ai
		if i&pb == 0 {
			p0 += ar*ar + ai*ai
		} else {
			p1 += ar*ar + ai*ai
		}
	}
	return p0, p1
}

// popArgs is the operand block of the AVX2 population passes, laid out
// as kernels_amd64.s reads it (TestPopArgsLayout pins the offsets). A
// stream is the run of amplitudes one chain sums: a whole lane, or, when
// the population qubit is at bit 4 or above, one half of each block of
// a lane. Every stream lives in one storage (a State's or a Batch's
// re/im); stream s starts off[s] amplitudes in and is walked by index m
// — the walk index j itself for whole lanes, j spread around the
// population bit for halves. The walk goes in runs of runLen indices in
// which no update's row selection changes, so the pass selects each
// update's row once per run (sel) and reads stream s's coefficients
// from the selected row of tab[s][u].
type popArgs struct {
	re, im *float64                // storage base pointers
	off    [4]int                  // stream start offsets, in amplitudes
	tab    [4][MaxPending]*float64 // per stream and update: its Diag's row 0, or the row its offset selects
	hb     [MaxPending][2]uint64   // per update: its bit masks at bit 4 and above, else 0
	nu     int                     // pending updates per stream
	n      int                     // walk indices per stream, a multiple of 4
	runLen int                     // walk indices per run, a power of 2 >= 4 dividing n
	pbm1   uint64                  // population bit minus 1 for half streams, else all ones
	npbm1  uint64                  // ^pbm1
	mode   int                     // accumulate pattern: 0 all to A, 1 A B A B, 2 A A B B
	sel    [MaxPending]uint64      // the run's row offset per update, in bytes
	acc    [8]float64              // out: stream s's chains in acc[s] (A) and acc[4+s] (B)
}

// shapesMatch reports whether two pending lists read the same qubits in
// the same order, so one pass can select every stream's coefficients
// with shared index computations.
func shapesMatch(a, b []Diag) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].sameShape(&b[i]) {
			return false
		}
	}
	return true
}

// run computes, for each i, the populations of bit pb (0: a qubit
// outside the register) of the lane at offset lanes[i]*size of re/im
// after applying ds[i], into p0[i] and p1[i], through the AVX2 passes.
// Lanes hold size >= 4 amplitudes. Consecutive lanes whose lists share
// a shape go through one pass together: up to four whole lanes, or two
// lanes split into halves.
func (pa *popArgs) run(re, im []float64, size int, lanes []int, ds [][]Diag, pb int, p0, p1 []float64) {
	pa.re, pa.im = &re[0], &im[0]
	perPass := 4
	if pb >= 4 {
		perPass = 2
	}
	for i := 0; i < len(lanes); {
		cnt := 1
		for cnt < perPass && i+cnt < len(lanes) && shapesMatch(ds[i], ds[i+cnt]) {
			cnt++
		}
		if cnt == 3 {
			cnt = 2
		}
		pa.pass(size, lanes[i:i+cnt], ds[i:i+cnt], pb, p0[i:i+cnt], p1[i:i+cnt])
		i += cnt
	}
}

// pass runs one AVX2 population pass over lanes (1, 2 or 4 of them; 1
// or 2 when pb >= 4, each then two half streams).
func (pa *popArgs) pass(size int, lanes []int, ds [][]Diag, pb int, p0, p1 []float64) {
	shape := ds[0]
	pa.nu = len(shape)
	perLane := 1
	pa.n, pa.pbm1, pa.npbm1 = size, ^uint64(0), 0
	switch {
	case pb >= 4:
		perLane = 2
		pa.n, pa.pbm1, pa.npbm1 = size/2, uint64(pb-1), ^uint64(pb-1)
		pa.mode = 0
	case pb == 0:
		pa.mode = 0
	case pb == 1:
		pa.mode = 1
	default: // pb == 2
		pa.mode = 2
	}
	// A run ends where some update's high bit changes in m, or at a
	// half stream's block edge. In walk indices a bit above pb sits one
	// place lower.
	pa.runLen = pa.n
	if perLane == 2 {
		pa.runLen = min(pa.runLen, pb)
	}
	for u := range shape {
		h0, h1 := highBit(shape[u].b0), highBit(shape[u].b1)
		pa.hb[u] = [2]uint64{uint64(h0), uint64(h1)}
		for _, w := range [2]int{h0, h1} {
			if w == 0 {
				continue
			}
			if perLane == 2 && w > pb {
				w >>= 1
			}
			pa.runLen = min(pa.runLen, w)
		}
	}
	streams := 0
	for l, lane := range lanes {
		for half := 0; half < perLane; half++ {
			off := half * pb
			pa.off[streams] = lane*size + off
			for u := range ds[l] {
				// The walk index m never holds the offset's bit, so a
				// half stream's rows are its offset's row on.
				row := 0
				if uint64(off)&pa.hb[u][0] != 0 {
					row = 1
				}
				if uint64(off)&pa.hb[u][1] != 0 {
					row |= 2
				}
				pa.tab[streams][u] = &ds[l][u].rows[row][0]
			}
			streams++
		}
	}
	switch streams {
	case 1:
		popsAVX1(pa)
	case 2:
		popsAVX2(pa)
	default:
		popsAVX4(pa)
	}
	for k := range lanes {
		if perLane == 2 {
			p0[k], p1[k] = pa.acc[2*k], pa.acc[2*k+1]
		} else {
			p0[k], p1[k] = pa.acc[k], pa.acc[4+k]
		}
	}
}
