package mapper

// router.go is the SABRE-style bidirectional reliability-aware router
// (Li, Ding & Xie, ASPLOS'19, adapted to the reliability metric of the
// noise-adaptive-compilation line: Murali et al. / Tannu & Qureshi,
// ASPLOS'19). It replaces the one-operand SWAP walk as the routing engine
// behind route(), so Compile, CompileWithLayout, TopK, singleBest and
// alternativePlacements all go through it.
//
// Three pieces compose:
//
//   - sabrePass routes one direction: when the next two-qubit gate sits on
//     uncoupled physical qubits, it scores every SWAP on a link adjacent to
//     either operand by the link's own error cost plus the
//     reliability-weighted distance of the front gate and a decaying window
//     of upcoming two-qubit gates, and applies the cheapest.
//   - converge runs the bidirectional iteration: route forward, route the
//     inverse of the program's unitary part (circuit.Inverse) from the
//     resulting final layout, and feed the backward pass's final layout in
//     as the next initial layout, until a fixed point (or the iteration
//     cap). Routing the reverse program pulls qubits toward where the
//     *whole* circuit wants them, not just its first gates.
//   - route/routePinned keep the legacy greedy walk as a safety net: every
//     variant is dry-run and scored, and only the best — highest ESP, then
//     fewest SWAPs, then greedy-first — is materialized into a circuit, so
//     the router can only improve on the frozen greedy baseline.
//
// Passes are dry: they score ESP incrementally from the compiler's dense
// success tables in the exact op order of the circuit they would build
// (bit-identical to device.ESP on that circuit, pinned by
// TestRouteESPMatchesDevice) and record their SWAP decisions as a log.
// Only the winning variant is materialized, by replaying its log with no
// scoring or search at all.
//
// Determinism contract: swap candidates are scored in a fixed order
// (neighbors of operand 0 ascending, then neighbors of operand 1
// ascending) and a challenger must beat the incumbent by a relative
// bbEps-style margin, so float rounding can never flip a near-tie and
// every pass is bit-identical across runs and GOMAXPROCS settings. The
// routers themselves are serial; the parallel sweeps above them (TopK
// shards, alternative-placement seeds, experiment cells) inherit
// bit-identical results, enforced by the -race determinism tests.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"edm/internal/circuit"
)

const (
	// lookaheadWindow is the number of upcoming two-qubit gates the swap
	// cost looks at beyond the front gate.
	lookaheadWindow = 12
	// lookaheadDecay discounts each successive window gate: nearer gates
	// dominate, so the router does not sacrifice the front gate to distant
	// structure.
	lookaheadDecay = 0.7
	// lookaheadWeight scales the whole window term relative to the front
	// gate, which always has weight 1.
	lookaheadWeight = 0.5
	// sabreMaxIters caps the forward/backward iterations of converge. The
	// Table 1 workloads reach a fixed point in one or two rounds.
	sabreMaxIters = 4
	// stallLimit is the number of consecutive swaps that may leave the
	// front gate's path cost non-decreasing before the router forces a
	// cheapest-path step toward the partner, guaranteeing termination.
	stallLimit = 2
)

// routeProg is a circuit preprocessed for routing: its ops plus the
// two-qubit gate sequence the lookahead window slides over, and a
// lazily-built inverse program for the bidirectional iteration. Building
// it once lets many layouts of the same program (the alternative-placement
// sweep, the converge iterations) share all the per-program work.
type routeProg struct {
	src    *circuit.Circuit
	ops    []circuit.Op
	pairs  [][2]int // two-qubit gates' logical operands, in op order
	pairAt []int    // op index -> position in pairs (two-qubit ops only)
	used   []int    // logical qubits touched by non-Barrier ops, ascending
	nclb   int
	name   string

	invOnce sync.Once
	inv     *routeProg // inverse of the unitary part; nil if unavailable
}

func progOf(logical *circuit.Circuit) *routeProg {
	p := &routeProg{src: logical, ops: logical.Ops, nclb: logical.NumClbits, name: logical.Name}
	p.pairAt = make([]int, len(logical.Ops))
	n2q := 0
	for _, op := range logical.Ops {
		if op.Kind.IsTwoQubit() {
			n2q++
		}
	}
	p.pairs = make([][2]int, 0, n2q)
	usedb := make([]bool, logical.NumQubits)
	for i, op := range logical.Ops {
		if op.Kind.IsTwoQubit() {
			p.pairAt[i] = len(p.pairs)
			p.pairs = append(p.pairs, [2]int{op.Qubits[0], op.Qubits[1]})
		}
		if op.Kind == circuit.Barrier {
			continue
		}
		for _, q := range op.Qubits {
			usedb[q] = true
		}
	}
	for q, u := range usedb {
		if u {
			p.used = append(p.used, q)
		}
	}
	return p
}

// inverse returns the routeProg of the inverse of the program's unitary
// part, building it on first use (concurrency-safe: parallel seed routing
// shares one prog). Nil when the circuit has no invertible form.
func (p *routeProg) inverse() *routeProg {
	p.invOnce.Do(func() {
		if inv, err := p.src.UnitaryPart().Inverse(); err == nil {
			p.inv = progOf(inv)
		}
	})
	return p.inv
}

// coupled reports whether physical qubits a and b share a coupling-graph
// edge. cxCost is finite exactly on edges (costOf caps at 50), making this
// a dense-array lookup on the router's hottest predicate.
func (c *Compiler) coupled(a, b int) bool {
	return !math.IsInf(c.cxCost[a][b], 1)
}

// zeroSwap reports whether every two-qubit gate is already coupled under
// the layout, i.e. routing from it inserts no SWAPs at all (embedded
// placements). Both routers behave identically there.
func (c *Compiler) zeroSwap(prog *routeProg, layout []int) bool {
	for _, pr := range prog.pairs {
		if !c.coupled(layout[pr[0]], layout[pr[1]]) {
			return false
		}
	}
	return true
}

// swapRec is one recorded routing decision: insert SWAP(u, v) immediately
// before emitting op. The log fully determines the routed circuit, so
// materialization is a decision-free replay.
type swapRec struct {
	op   int
	u, v int
}

// passResult summarizes a dry routing pass: the final layout it reaches,
// its SWAP log, and the ESP of the circuit it would build.
type passResult struct {
	final []int
	rec   []swapRec
	esp   float64
}

func (r passResult) swaps() int { return len(r.rec) }

// betterPass reports whether a strictly improves on b: higher ESP by a
// relative bbEps margin, or (within the margin) fewer SWAPs. The margin
// keeps the choice deterministic under float rounding; preferring fewer
// swaps on an ESP tie shortens the executable at no reliability cost.
func betterPass(a, b passResult) bool {
	if a.esp > b.esp*(1+bbEps) {
		return true
	}
	return a.esp >= b.esp*(1-bbEps) && a.swaps() < b.swaps()
}

// route inserts SWAPs so every two-qubit gate acts on coupled qubits. The
// given layout is treated as a seed: the bidirectional pass may converge
// to a different (better) initial layout, and the executable's
// InitialLayout reports whichever layout was actually used. Callers that
// must pin the initial layout use routePinned instead.
func (c *Compiler) route(logical *circuit.Circuit, layout []int) (*Executable, error) {
	return c.routeFrom(progOf(logical), layout)
}

// routeFrom is route over a preprocessed program, letting sweeps that
// route the same program from many layouts share the routeProg (and its
// lazily-built inverse).
func (c *Compiler) routeFrom(prog *routeProg, layout []int) (*Executable, error) {
	bestLayout, best, err := c.routeDry(prog, layout)
	if err != nil {
		return nil, err
	}
	return c.replay(prog, bestLayout, best), nil
}

// routeDry is the route() orchestration without materialization: it
// dry-runs the greedy baseline, the SABRE lookahead pass and the
// bidirectional converge iteration, and returns the winning initial
// layout with its pass result. Callers that may discard the result (the
// alternative-placement sweep keeps at most k of its outputs) replay the
// log only for the survivors.
func (c *Compiler) routeDry(prog *routeProg, layout []int) ([]int, passResult, error) {
	if c.zeroSwap(prog, layout) {
		res, err := c.greedyPass(prog, layout)
		if err != nil {
			return nil, passResult{}, err
		}
		return layout, res, nil
	}
	grd, gerr := c.greedyPass(prog, layout)
	sab, serr := c.sabrePass(prog, layout)
	if gerr != nil && serr != nil {
		return nil, passResult{}, gerr
	}
	// Preference order on ties: greedy (baseline continuity), then the
	// pinned SABRE pass, then the bidirectional layout.
	bestLayout, best := layout, grd
	if gerr != nil || (serr == nil && betterPass(sab, grd)) {
		best = sab
	}
	if serr == nil {
		if improved, res, ok := c.converge(prog, layout, sab); ok && !sameInts(improved, layout) && betterPass(res, best) {
			bestLayout, best = improved, res
		}
	}
	return bestLayout, best, nil
}

// altPlacement is a routed-but-unmaterialized placement: the winning dry
// pass plus everything ensemble selection needs (ESP, initial layout,
// used-qubit set). The circuit is only built — by replaying the SWAP log —
// for the placements that survive selection.
type altPlacement struct {
	c      *Compiler
	prog   *routeProg
	layout []int
	res    passResult
}

func (a *altPlacement) exe() *Executable { return a.c.replay(a.prog, a.layout, a.res) }

// usedMask is the physical-qubit set of the circuit replay would build,
// derived from the dry pass alone: the initial positions of every logical
// qubit the program touches, plus every recorded SWAP endpoint. Any qubit
// an emitted op lands on is either an operand's initial position or was
// reached through a recorded SWAP; conversely every initial position and
// SWAP endpoint appears in some emitted op. So the set equals UsedQubits()
// of the materialized circuit.
func (a *altPlacement) usedMask(devN int) qmask {
	_ = devN // width is fixed by the qmask type; kept for call-site symmetry
	var set qmask
	for _, q := range a.prog.used {
		set.Add(a.layout[q])
	}
	for _, r := range a.res.rec {
		set.Add(r.u)
		set.Add(r.v)
	}
	return set
}

// routePinned routes from exactly the given initial layout: the SABRE
// lookahead pass and the legacy greedy walk are both dry-run, and the
// higher-ESP routing is materialized (greedy on ties, keeping continuity
// with the frozen baseline). The result's InitialLayout always equals
// layout — this is the CompileWithLayout contract.
func (c *Compiler) routePinned(logical *circuit.Circuit, layout []int) (*Executable, error) {
	prog := progOf(logical)
	grd, gerr := c.greedyPass(prog, layout)
	sab, serr := c.sabrePass(prog, layout)
	switch {
	case gerr != nil && serr != nil:
		return nil, gerr
	case gerr != nil:
		return c.replay(prog, layout, sab), nil
	case serr != nil:
		return c.replay(prog, layout, grd), nil
	}
	if betterPass(sab, grd) {
		return c.replay(prog, layout, sab), nil
	}
	return c.replay(prog, layout, grd), nil
}

// routeGreedy materializes the frozen greedy-walk routing from the given
// layout; it is the baseline the SABRE router is benchmarked against
// (scripts/bench_router.sh).
func (c *Compiler) routeGreedy(logical *circuit.Circuit, layout []int) (*Executable, error) {
	prog := progOf(logical)
	res, err := c.greedyPass(prog, layout)
	if err != nil {
		return nil, err
	}
	return c.replay(prog, layout, res), nil
}

// replay materializes a dry pass result: it rebuilds the physical circuit
// by applying the recorded SWAP log, with no routing decisions left to
// make. The replayed ESP is the same product over the same factors in the
// same order as the dry pass (and as device.ESP on the result).
func (c *Compiler) replay(prog *routeProg, layout []int, res passResult) *Executable {
	phys := circuit.New(c.devN, prog.nclb)
	phys.Name = prog.name
	phys.Ops = make([]circuit.Op, 0, len(prog.ops)+len(res.rec))
	st := c.newPassState(layout, phys)
	nq := 2 * len(res.rec)
	for _, op := range prog.ops {
		nq += len(op.Qubits)
	}
	st.qbuf = make([]int, nq)
	k := 0
	for i, op := range prog.ops {
		for k < len(res.rec) && res.rec[k].op == i {
			st.swap(i, res.rec[k].u, res.rec[k].v)
			k++
		}
		switch {
		case op.Kind == circuit.Barrier:
			st.barrier(op)
		case op.Kind == circuit.Measure:
			st.measure(op)
		case op.Kind.IsTwoQubit():
			st.gate2(op)
		default:
			// Validated by the dry pass that produced the log.
			st.gate1(op, i)
		}
	}
	return &Executable{
		Circuit:       phys,
		InitialLayout: append([]int(nil), layout...),
		FinalLayout:   st.l2p,
		ESP:           st.esp,
		Swaps:         st.swaps,
	}
}

// converge is the bidirectional layout iteration: forward pass from the
// current layout, backward pass (the inverse of the unitary part) from the
// forward pass's final layout, and the backward final layout becomes the
// next candidate initial layout. A fixed point means routing the program
// from that layout deposits the qubits exactly where routing it in
// reverse wants to start — the SABRE convergence criterion. fwd is the
// already-computed forward pass from seed, so iteration zero reuses it.
// Returns the converged (or last) layout with its forward-pass result; ok
// is false when the circuit has no usable inverse or a pass fails, in
// which case the caller keeps the seed.
func (c *Compiler) converge(prog *routeProg, seed []int, fwd passResult) ([]int, passResult, bool) {
	invProg := prog.inverse()
	if invProg == nil {
		return nil, passResult{}, false
	}
	cur, curRes := seed, fwd
	for iter := 0; iter < sabreMaxIters; iter++ {
		back, err := c.sabrePass(invProg, curRes.final)
		if err != nil {
			return nil, passResult{}, false
		}
		if sameInts(back.final, cur) {
			return cur, curRes, true
		}
		res, err := c.sabrePass(prog, back.final)
		if err != nil {
			return nil, passResult{}, false
		}
		if !betterPass(res, curRes) {
			// The refined layout routes no better: an oscillating seed.
			// Keep the best layout seen instead of iterating to the cap.
			return cur, curRes, true
		}
		cur, curRes = back.final, res
	}
	return cur, curRes, true
}

// sabrePass dry-routes the program once from the given initial layout with
// the lookahead heuristic, returning the final layout, the SWAP log, and
// the ESP of the circuit the log would build.
func (c *Compiler) sabrePass(prog *routeProg, layout []int) (passResult, error) {
	st := c.newPassState(layout, nil)
	for i, op := range prog.ops {
		switch {
		case op.Kind == circuit.Barrier:
		case op.Kind == circuit.Measure:
			st.measure(op)
		case op.Kind.IsTwoQubit():
			la, lb := op.Qubits[0], op.Qubits[1]
			stall := 0
			for guard := 0; !c.coupled(st.l2p[la], st.l2p[lb]); guard++ {
				pa, pb := st.l2p[la], st.l2p[lb]
				if c.pathNext[pa][pb] == -1 {
					return passResult{}, fmt.Errorf("mapper: op %d: no route between physical qubits %d and %d", i, pa, pb)
				}
				if guard > 6*c.devN {
					// Unreachable with the stall guard below; a hard stop
					// beats an infinite loop if the heuristic ever cycles.
					return passResult{}, fmt.Errorf("mapper: op %d: router failed to converge", i)
				}
				var su, sv int
				if stall >= stallLimit {
					// Force progress: step operand 0 along the cheapest
					// path, which strictly reduces the front path cost.
					su, sv = pa, c.pathNext[pa][pb]
				} else {
					su, sv = c.bestSwap(st, prog.pairs, prog.pairAt[i], pa, pb)
				}
				before := c.pathCost[pa][pb]
				st.swap(i, su, sv)
				if c.pathCost[st.l2p[la]][st.l2p[lb]] < before {
					stall = 0
				} else {
					stall++
				}
			}
			st.gate2(op)
		default:
			if err := st.gate1(op, i); err != nil {
				return passResult{}, err
			}
		}
	}
	return passResult{final: st.l2p, rec: st.rec, esp: st.esp}, nil
}

// greedyPass is the frozen pre-SABRE router: walk operand 0 of each
// uncoupled two-qubit gate along the reliability-cheapest path until the
// pair is coupled. Kept as the baseline the lookahead router must beat,
// and as the router for zero-swap layouts (where the two are identical).
// The walk steps the pathNext chain in place — the same hop sequence
// pathBetween materializes — so it allocates nothing per gate.
func (c *Compiler) greedyPass(prog *routeProg, layout []int) (passResult, error) {
	st := c.newPassState(layout, nil)
	for i, op := range prog.ops {
		switch {
		case op.Kind == circuit.Barrier:
		case op.Kind == circuit.Measure:
			st.measure(op)
		case op.Kind.IsTwoQubit():
			pa, pb := st.l2p[op.Qubits[0]], st.l2p[op.Qubits[1]]
			// A gate on coupled qubits always executes directly: a detour
			// would cost three CX per hop against one direct CX, so even a
			// noisy direct link wins.
			if !c.coupled(pa, pb) {
				if c.pathNext[pa][pb] == -1 {
					return passResult{}, fmt.Errorf("mapper: op %d: no route between physical qubits %d and %d", i, pa, pb)
				}
				for u := pa; ; {
					v := c.pathNext[u][pb]
					if v == pb {
						break
					}
					st.swap(i, u, v)
					u = v
				}
			}
			st.gate2(op)
		default:
			if err := st.gate1(op, i); err != nil {
				return passResult{}, err
			}
		}
	}
	return passResult{final: st.l2p, rec: st.rec, esp: st.esp}, nil
}

// passState is the shared mutable state of one routing pass: the evolving
// layout, the incrementally scored ESP, the SWAP log, and (during replay)
// the physical circuit under construction. The ESP factors and their
// multiplication order replicate device.ESP on the materialized circuit
// exactly, so dry passes are directly comparable to (and interchangeable
// with) scored executables.
type passState struct {
	c     *Compiler
	l2p   []int
	p2l   []int
	rec   []swapRec
	phys  *circuit.Circuit
	qbuf  []int    // replay-only arena for the emitted ops' Qubits slices
	touch []uint16 // bestSwap scratch: per-qubit window bitmask, kept zeroed
	swaps int
	esp   float64
}

// takeQ carves an n-slot Qubits slice out of the replay arena (sized
// exactly upfront; the fallback allocation never triggers in practice).
func (st *passState) takeQ(n int) []int {
	if len(st.qbuf) < n {
		return make([]int, n)
	}
	s := st.qbuf[:n:n]
	st.qbuf = st.qbuf[n:]
	return s
}

func (c *Compiler) newPassState(layout []int, phys *circuit.Circuit) *passState {
	st := &passState{c: c, l2p: append([]int(nil), layout...), phys: phys, esp: 1}
	st.p2l = make([]int, c.devN)
	for i := range st.p2l {
		st.p2l[i] = -1
	}
	for lq, p := range st.l2p {
		st.p2l[p] = lq
	}
	return st
}

// swap applies SWAP(a, b) before op i: it updates the layout, scores the
// three CX the SWAP decomposes into, and either logs the decision (dry
// pass) or emits the gate (replay).
func (st *passState) swap(i, a, b int) {
	if st.phys != nil {
		qs := st.takeQ(2)
		qs[0], qs[1] = a, b
		st.phys.Ops = append(st.phys.Ops, circuit.Op{Kind: circuit.SWAP, Qubits: qs, Cbit: -1})
	} else {
		if st.rec == nil {
			st.rec = make([]swapRec, 0, 16)
		}
		st.rec = append(st.rec, swapRec{op: i, u: a, v: b})
	}
	la, lb := st.p2l[a], st.p2l[b]
	st.p2l[a], st.p2l[b] = lb, la
	if la >= 0 {
		st.l2p[la] = b
	}
	if lb >= 0 {
		st.l2p[lb] = a
	}
	s := st.c.cxSucc[a][b]
	st.esp *= s * s * s
	st.swaps++
}

func (st *passState) barrier(op circuit.Op) {
	if st.phys == nil {
		return
	}
	qs := st.takeQ(len(op.Qubits))
	for j, q := range op.Qubits {
		qs[j] = st.l2p[q]
	}
	st.phys.Ops = append(st.phys.Ops, circuit.Op{Kind: circuit.Barrier, Qubits: qs, Cbit: -1})
}

func (st *passState) measure(op circuit.Op) {
	st.esp *= st.c.measSucc[st.l2p[op.Qubits[0]]]
	if st.phys != nil {
		qs := st.takeQ(1)
		qs[0] = st.l2p[op.Qubits[0]]
		st.phys.Ops = append(st.phys.Ops, circuit.Op{Kind: circuit.Measure, Qubits: qs, Cbit: op.Cbit})
	}
}

// gate2 appends a (now coupled) two-qubit gate.
func (st *passState) gate2(op circuit.Op) {
	pa, pb := st.l2p[op.Qubits[0]], st.l2p[op.Qubits[1]]
	s := st.c.cxSucc[pa][pb]
	if op.Kind == circuit.SWAP {
		st.esp *= s * s * s
	} else {
		st.esp *= s
	}
	if st.phys != nil {
		nop := op // Params shared with the logical op; Remap/Clone copy on write paths
		qs := st.takeQ(2)
		qs[0], qs[1] = pa, pb
		nop.Qubits = qs
		st.phys.Ops = append(st.phys.Ops, nop)
	}
}

// gate1 appends a single-qubit gate. Any future multi-qubit kind that
// slips past IsTwoQubit must fail loudly here: the old remap-operand-0
// fallback would silently corrupt it.
func (st *passState) gate1(op circuit.Op, i int) error {
	if len(op.Qubits) != 1 {
		return fmt.Errorf("mapper: op %d: unroutable op kind %v with %d operands", i, op.Kind, len(op.Qubits))
	}
	if op.Kind != circuit.I {
		st.esp *= st.c.sqSucc[st.l2p[op.Qubits[0]]]
	}
	if st.phys != nil {
		nop := op // Params shared with the logical op
		qs := st.takeQ(1)
		qs[0] = st.l2p[op.Qubits[0]]
		nop.Qubits = qs
		st.phys.Ops = append(st.phys.Ops, nop)
	}
	return nil
}

// bestSwap scores every SWAP on a link adjacent to either operand of the
// front gate and returns the cheapest. The cost of swapping (u, v) is the
// swap's own error cost (three CX on that link) plus the post-swap
// interaction cost of the front gate plus a decaying window over upcoming
// two-qubit gates. Candidates are visited in fixed order and a challenger
// must win by a relative margin, so ties always resolve to the earliest
// candidate.
func (c *Compiler) bestSwap(st *passState, pairs [][2]int, gi, pa, pb int) (int, int) {
	l2p := st.l2p
	// Fall back to the cheapest-path step if every candidate scores +Inf
	// (possible when a window gate spans disconnected components).
	bestU, bestV := pa, c.pathNext[pa][pb]
	bestCost := math.Inf(1)
	end := gi + 1 + lookaheadWindow
	if end > len(pairs) {
		end = len(pairs)
	}
	// Precompute the window once per swap decision: each candidate swap
	// touches only two physical qubits, so per-candidate scoring adjusts
	// the gates whose operands moved instead of rescoring the whole window.
	// touch[q] is the bitmask of window entries with an operand on physical
	// qubit q (pass-local scratch; only the entries set here are reset
	// before returning). Gates whose operands span disconnected components
	// score +Inf under every candidate (a swap never crosses components)
	// and are dropped.
	if st.touch == nil {
		st.touch = make([]uint16, c.devN)
	}
	touch := st.touch
	var (
		wq     [lookaheadWindow][2]int
		wterm  [lookaheadWindow]float64
		wgt    [lookaheadWindow]float64
		nw     int
		winSum float64
	)
	w := lookaheadWeight
	for j := gi + 1; j < end; j++ {
		qa, qb := l2p[pairs[j][0]], l2p[pairs[j][1]]
		if t := c.iCost[qa][qb]; !math.IsInf(t, 1) {
			wq[nw] = [2]int{qa, qb}
			wterm[nw] = t
			wgt[nw] = w
			winSum += w * t
			touch[qa] |= 1 << uint(nw)
			touch[qb] |= 1 << uint(nw)
			nw++
		}
		w *= lookaheadDecay
	}
	consider := func(u, v int) {
		fa, fb := swapPos(pa, u, v), swapPos(pb, u, v)
		cost := 3*c.cxCost[u][v] + c.iCost[fa][fb] + winSum
		// Adjusted entries are visited in ascending window index, matching
		// the order the window was summed in, so the float arithmetic is
		// bit-identical however the mask is populated.
		for m := touch[u] | touch[v]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros16(m)
			qa, qb := wq[i][0], wq[i][1]
			cost += wgt[i] * (c.iCost[swapPos(qa, u, v)][swapPos(qb, u, v)] - wterm[i])
		}
		if cost+bbEps*(1+cost) < bestCost {
			bestCost, bestU, bestV = cost, u, v
		}
	}
	for _, v := range c.adj[pa] {
		consider(pa, v)
	}
	for _, v := range c.adj[pb] {
		consider(pb, v)
	}
	for i := 0; i < nw; i++ {
		touch[wq[i][0]], touch[wq[i][1]] = 0, 0
	}
	return bestU, bestV
}

// swapPos is p's position after swapping physical qubits u and v.
func swapPos(p, u, v int) int {
	switch p {
	case u:
		return v
	case v:
		return u
	}
	return p
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
