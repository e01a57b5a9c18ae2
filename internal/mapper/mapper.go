// Package mapper is the variation-aware quantum compiler: it assigns
// program qubits to physical qubits and routes two-qubit gates with SWAP
// insertion, using the device calibration to prefer reliable qubits and
// links (the qubit-allocation baseline of paper Sections 2.3-2.4, in the
// family of the A*/reliability-heuristic mappers the paper builds on).
//
// It also implements step 2 of EDM: TopK builds a candidate pool from
// every isomorphic placement of the compiled baseline (VF2 over the
// coupling graph) plus independently re-compiled placements, ranks the
// pool by ESP, and selects the ensemble greedily under the paper's two
// member criteria — ESP within a slack of the best mapping (Section 3.2)
// and limited qubit overlap between members (Section 6.1). Quality
// relaxes last: the paper warns that buying diversity with lower-ESP
// mappings at compile time is risky.
//
// The candidate pipeline is streaming: placements are scored as the VF2
// search emits them (topk.go), sharded across the compute-token pool, and
// only the selected ensemble members are materialized into circuits.
package mapper

import (
	"fmt"
	"math"

	"edm/internal/bitset"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/graph"
)

// Executable is a compiled physical circuit together with its mapping
// metadata.
type Executable struct {
	// Circuit is the physical circuit: qubit indices are device qubits and
	// every two-qubit gate respects the coupling map.
	Circuit *circuit.Circuit
	// InitialLayout maps logical qubit -> physical qubit at program start.
	InitialLayout []int
	// FinalLayout maps logical qubit -> physical qubit after all routing
	// SWAPs.
	FinalLayout []int
	// ESP is the Estimated Success Probability under the compile-time
	// calibration (paper Section 2.4).
	ESP float64
	// Swaps is the number of SWAP operations the router inserted.
	Swaps int
}

// UsedQubits returns the physical qubits the executable touches.
func (e *Executable) UsedQubits() []int { return e.Circuit.UsedQubits() }

// Compiler holds the compile-time calibration. Note that the machine's
// behaviour at run time may have drifted away from this data — the gap the
// paper discusses in Section 5.3. A Compiler is immutable after
// construction and safe for concurrent use.
type Compiler struct {
	cal  *device.Calibration
	g    *graph.Graph // coupling graph (shared with the topology)
	devN int

	// Dense per-qubit and per-link tables, indexed by physical qubit.
	// Dense lookups replace the map[Edge]float64 of earlier versions: the
	// candidate pipeline reads them millions of times per TopK call.
	sqSucc   []float64   // 1 - SQErr[q]
	measSucc []float64   // 1 - MeasErrAvg(q)
	measCost []float64   // costOf(MeasErrAvg(q))
	cxSucc   [][]float64 // 1 - CXErr on coupled pairs, 0 elsewhere
	cxCost   [][]float64 // costOf(CXErr) on coupled pairs, +Inf elsewhere

	// Device-wide extrema, the ingredients of branch-and-bound bounds: no
	// completion of a partial placement can beat the best per-op factor.
	maxSQSucc   float64
	maxMeasSucc float64
	maxCXSucc   float64
	minMeasCost float64
	minEdgeCost float64

	// pathCost[a][b] = cheapest -log reliability of moving between a and b.
	pathCost [][]float64
	// pathNext[a][b] = next hop from a on the cheapest path to b.
	pathNext [][]int
	// iCost[a][b] = cxCost[a][b] on coupled pairs, else pathCost[a][b]: the
	// router's interaction-distance metric as one fused lookup (router.go
	// reads it in the innermost swap-scoring loop).
	iCost [][]float64
	// adj[q] is the sorted neighbor list of q, cached once so the router's
	// swap-candidate scans allocate nothing.
	adj [][]int

	// ens memoizes TopK ensembles per circuit fingerprint. nil on
	// compilers built with NewCompiler (every call recomputes, the
	// behaviour the frozen benchmarks measure); NewMemoCompiler attaches
	// one. See cache.go.
	ens *ensembleCache
}

// NewCompiler builds a compiler for the calibration, precomputing
// reliability-weighted all-pairs shortest paths over the coupling graph.
// The calibration must not be mutated afterwards.
func NewCompiler(cal *device.Calibration) *Compiler {
	if err := cal.Validate(); err != nil {
		panic(fmt.Sprintf("mapper: invalid calibration: %v", err))
	}
	n := cal.Topo.Qubits
	c := &Compiler{
		cal:      cal,
		g:        cal.Topo.Graph(),
		devN:     n,
		sqSucc:   make([]float64, n),
		measSucc: make([]float64, n),
		measCost: make([]float64, n),
		cxSucc:   make([][]float64, n),
		cxCost:   make([][]float64, n),
	}
	c.maxSQSucc, c.maxMeasSucc, c.minMeasCost = 0, 0, math.Inf(1)
	for q := 0; q < n; q++ {
		c.sqSucc[q] = 1 - cal.SQErr[q]
		c.measSucc[q] = 1 - cal.MeasErrAvg(q)
		c.measCost[q] = costOf(cal.MeasErrAvg(q))
		c.maxSQSucc = math.Max(c.maxSQSucc, c.sqSucc[q])
		c.maxMeasSucc = math.Max(c.maxMeasSucc, c.measSucc[q])
		c.minMeasCost = math.Min(c.minMeasCost, c.measCost[q])
		c.cxSucc[q] = make([]float64, n)
		c.cxCost[q] = make([]float64, n)
		for p := 0; p < n; p++ {
			c.cxCost[q][p] = math.Inf(1)
		}
	}
	c.maxCXSucc, c.minEdgeCost = 0, math.Inf(1)
	for _, e := range cal.Topo.Edges() {
		s := 1 - cal.CXErr[e]
		w := costOf(cal.CXErr[e])
		c.cxSucc[e.A][e.B], c.cxSucc[e.B][e.A] = s, s
		c.cxCost[e.A][e.B], c.cxCost[e.B][e.A] = w, w
		c.maxCXSucc = math.Max(c.maxCXSucc, s)
		c.minEdgeCost = math.Min(c.minEdgeCost, w)
	}
	c.adj = make([][]int, n)
	for q := 0; q < n; q++ {
		c.adj[q] = c.g.Neighbors(q)
	}
	c.computeAllPairs()
	c.iCost = make([][]float64, n)
	for a := 0; a < n; a++ {
		c.iCost[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			if w := c.cxCost[a][b]; !math.IsInf(w, 1) {
				c.iCost[a][b] = w
			} else {
				c.iCost[a][b] = c.pathCost[a][b]
			}
		}
	}
	return c
}

// Calibration returns the compile-time calibration.
func (c *Compiler) Calibration() *device.Calibration { return c.cal }

// costOf converts an error probability into an additive cost. Errors of 1
// (or more) map to a large finite cost so the router still terminates.
func costOf(errRate float64) float64 {
	if errRate >= 1 {
		return 50
	}
	return -math.Log(1 - errRate)
}

// pqItem is a pending (distance, vertex) pair in the Dijkstra heap.
type pqItem struct {
	d float64
	v int
}

// pqLess orders the heap by distance, ties by vertex id — the same
// extraction order as a linear scan that picks the lowest-index minimum,
// so the computed next-hop chains are identical to the O(n^2) scan this
// replaced.
func pqLess(a, b pqItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.v < b.v
}

type pqueue []pqItem

func (pq *pqueue) push(it pqItem) {
	*pq = append(*pq, it)
	i := len(*pq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess((*pq)[i], (*pq)[p]) {
			break
		}
		(*pq)[i], (*pq)[p] = (*pq)[p], (*pq)[i]
		i = p
	}
}

func (pq *pqueue) pop() pqItem {
	q := *pq
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(q) && pqLess(q[l], q[m]) {
			m = l
		}
		if r < len(q) && pqLess(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*pq = q
	return top
}

// computeAllPairs runs heap-based Dijkstra from every vertex with
// SWAP-cost weights: traversing an edge costs three CX on that edge (a
// SWAP decomposes into three CX), so the metric is 3 * -log(1 - CXErr).
func (c *Compiler) computeAllPairs() {
	n := c.devN
	c.pathCost = make([][]float64, n)
	c.pathNext = make([][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]float64, n)
		prev := make([]int, n)
		done := make([]bool, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prev[i] = -1
		}
		dist[src] = 0
		pq := make(pqueue, 0, n)
		pq.push(pqItem{0, src})
		for len(pq) > 0 {
			it := pq.pop()
			u := it.v
			if done[u] || it.d > dist[u] {
				continue
			}
			done[u] = true
			for _, v := range c.g.Neighbors(u) {
				w := 3 * c.cxCost[u][v]
				if dist[u]+w < dist[v] {
					dist[v] = dist[u] + w
					prev[v] = u
					pq.push(pqItem{dist[v], v})
				}
			}
		}
		c.pathCost[src] = dist
		// next hop: walk prev chains backwards.
		next := make([]int, n)
		for dst := 0; dst < n; dst++ {
			if dst == src || prev[dst] == -1 {
				next[dst] = -1
				continue
			}
			v := dst
			for prev[v] != src {
				v = prev[v]
			}
			next[dst] = v
		}
		c.pathNext[src] = next
	}
}

// pathBetween returns the cheapest path src..dst inclusive, or nil.
func (c *Compiler) pathBetween(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if c.pathNext[src][dst] == -1 {
		return nil
	}
	path := []int{src}
	for v := src; v != dst; {
		v = c.pathNext[v][dst]
		path = append(path, v)
	}
	return path
}

// widthErr rejects devices wider than the inline qmask footprints can
// index. Every public compile entry checks it, so a too-wide device is
// an explicit error — never a silently truncated footprint mask.
func (c *Compiler) widthErr() error {
	if c.devN > bitset.Cap {
		return fmt.Errorf("mapper: %d-qubit device exceeds the %d-qubit footprint width: %w",
			c.devN, bitset.Cap, device.ErrDeviceTooWide)
	}
	return nil
}

// Compile maps the logical circuit onto the device: variation-aware
// initial placement followed by reliability-aware SWAP routing. The
// returned executable acts on the full device register (NumQubits =
// device size) with the program's classical register unchanged, so output
// distributions from differently mapped executables are directly
// comparable.
func (c *Compiler) Compile(logical *circuit.Circuit) (*Executable, error) {
	if err := c.widthErr(); err != nil {
		return nil, err
	}
	if err := logical.Validate(); err != nil {
		return nil, err
	}
	if logical.NumQubits > c.devN {
		return nil, fmt.Errorf("mapper: program needs %d qubits, device has %d", logical.NumQubits, c.devN)
	}
	layout, err := c.place(logical)
	if err != nil {
		return nil, err
	}
	return c.route(logical, layout)
}

// CompileWithLayout routes the logical circuit from a caller-supplied
// initial layout (logical qubit -> physical qubit). The pinned layout is
// honored exactly: the returned executable's InitialLayout equals layout
// even when the bidirectional re-router would prefer a different seat, so
// callers coordinating layouts across programs (or reproducing a published
// mapping) get what they asked for. Routing still uses the lookahead
// router for the SWAPs themselves.
func (c *Compiler) CompileWithLayout(logical *circuit.Circuit, layout []int) (*Executable, error) {
	if err := c.widthErr(); err != nil {
		return nil, err
	}
	if err := logical.Validate(); err != nil {
		return nil, err
	}
	if len(layout) != logical.NumQubits {
		return nil, fmt.Errorf("mapper: layout has %d entries for %d qubits", len(layout), logical.NumQubits)
	}
	seen := make([]bool, c.devN)
	for lq, p := range layout {
		if p < 0 || p >= c.devN {
			return nil, fmt.Errorf("mapper: layout maps qubit %d to invalid physical qubit %d", lq, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("mapper: layout reuses physical qubit %d", p)
		}
		seen[p] = true
	}
	return c.routePinned(logical, append([]int(nil), layout...))
}

// place chooses the initial layout. If the program's interaction graph
// embeds directly into the coupling graph, the best-ESP embedding is used
// and no SWAPs will ever be needed (the paper's observation that QAOA on
// path graphs maps optimally, Section 5.2); otherwise a greedy
// variation-aware placement minimizes expected routing cost.
func (c *Compiler) place(logical *circuit.Circuit) ([]int, error) {
	if layout := c.placeByEmbedding(logical); layout != nil {
		return layout, nil
	}
	return c.placeGreedy(logical)
}

// bbEps is the relative safety margin applied to branch-and-bound
// thresholds. Bound products and incremental sums accumulate factors in a
// different order than the final scoring pass, so the two can disagree by
// a few ulps; the margin makes pruning strictly conservative — a subtree
// whose bound ties the incumbent within the margin is still explored, so
// pruning never changes which candidate wins a deterministic tie-break.
const bbEps = 1e-9

// placeByEmbedding searches the monomorphisms of the interaction graph
// into the coupling graph for the placement with the lowest total error
// cost, or returns nil if the interaction graph does not embed. The
// search is branch-and-bound: a partial assignment is abandoned as soon
// as its accumulated cost plus a best-case bound on the unassigned
// remainder exceeds the incumbent. Costs accumulate in a fixed order
// (match-order depth, then interaction-edge order), so the chosen
// placement is deterministic — unlike the earlier implementation, which
// summed edge costs in map-iteration order and could flip near-ties
// between runs. Logical qubits with no two-qubit gates are assigned
// afterwards, preferring low-readout-error physical qubits.
func (c *Compiler) placeByEmbedding(logical *circuit.Circuit) []int {
	n := logical.NumQubits
	edges := logical.InteractionGraph()
	if len(edges) == 0 {
		return nil // nothing to embed; greedy handles measurement quality
	}
	// Compact the interacting logical qubits.
	interacting := make([]bool, n)
	for _, e := range edges {
		interacting[e.A] = true
		interacting[e.B] = true
	}
	idx := make([]int, n)
	var compact []int
	for q := 0; q < n; q++ {
		idx[q] = -1
		if interacting[q] {
			idx[q] = len(compact)
			compact = append(compact, q)
		}
	}
	pattern := graph.New(len(compact))
	for _, e := range edges {
		pattern.AddEdge(idx[e.A], idx[e.B])
	}
	measures := make([]int, n)
	for _, op := range logical.Ops {
		if op.Kind == circuit.Measure {
			measures[op.Qubits[0]]++
		}
	}

	search := graph.NewMonoSearch(pattern, c.g)
	order := search.Order()
	depth := len(order)
	pos := make([]int, len(compact))
	for d, v := range order {
		pos[v] = d
	}
	// Bucket each weighted interaction edge at the depth where its second
	// endpoint is assigned; bucket order follows the deterministic
	// InteractionGraph edge order.
	type wedge struct{ a, b, w int }
	edgesAt := make([][]wedge, depth)
	wsumAt := make([]float64, depth)
	for _, e := range edges {
		i, j := idx[e.A], idx[e.B]
		d := pos[i]
		if pos[j] > d {
			d = pos[j]
		}
		edgesAt[d] = append(edgesAt[d], wedge{i, j, e.Count})
		wsumAt[d] += float64(e.Count)
	}
	measAt := make([]float64, depth)
	for d, v := range order {
		measAt[d] = float64(measures[compact[v]])
	}
	// suffixMin[d] lower-bounds the cost contributed by depths >= d: every
	// edge at least pays the best link, every measurement the best readout.
	suffixMin := make([]float64, depth+1)
	for d := depth - 1; d >= 0; d-- {
		suffixMin[d] = suffixMin[d+1] + wsumAt[d]*c.minEdgeCost + measAt[d]*c.minMeasCost
	}

	stack := make([]float64, depth+1)
	mono := make([]int, len(compact))
	for i := range mono {
		mono[i] = -1
	}
	bestCost := math.Inf(1)
	var best []int
	emitted := 0
	r := search.NewRunner(graph.Hooks{
		Assign: func(d, pv, tv int) bool {
			mono[pv] = tv
			cost := stack[d] + measAt[d]*c.measCost[tv]
			for _, we := range edgesAt[d] {
				cost += float64(we.w) * c.cxCost[mono[we.a]][mono[we.b]]
			}
			stack[d+1] = cost
			if cost+suffixMin[d+1] > bestCost*(1+bbEps) {
				mono[pv] = -1
				return false
			}
			return true
		},
		Unassign: func(d, pv, tv int) { mono[pv] = -1 },
		Emit: func(m []int) bool {
			if cost := stack[depth]; cost < bestCost {
				bestCost = cost
				best = append(best[:0], m...)
			}
			emitted++
			return emitted >= enumLimit
		},
	})
	r.Run()
	if best == nil {
		return nil
	}

	layout := make([]int, n)
	used := make([]bool, c.devN)
	for i := range layout {
		layout[i] = -1
	}
	for i, q := range compact {
		layout[q] = best[i]
		used[best[i]] = true
	}
	// Place non-interacting qubits on the best free readout qubits.
	for q := 0; q < n; q++ {
		if layout[q] != -1 {
			continue
		}
		bestP, bestM := -1, math.Inf(1)
		for p := 0; p < c.devN; p++ {
			if used[p] {
				continue
			}
			mcost := c.measCost[p] * float64(measures[q]+1)
			if mcost < bestM {
				bestM, bestP = mcost, p
			}
		}
		if bestP == -1 {
			return nil
		}
		layout[q] = bestP
		used[bestP] = true
	}
	return layout
}

// placeGreedy performs greedy variation-aware initial placement: logical
// qubits are ordered by interaction connectivity, and each is assigned to
// the free physical qubit minimizing routing cost to its already-placed
// partners plus a readout-quality term. Every physical seed is tried for
// the first qubit and the cheapest overall placement wins.
func (c *Compiler) placeGreedy(logical *circuit.Circuit) ([]int, error) {
	n := logical.NumQubits
	edges := logical.InteractionGraph()
	// Interaction counts and measure counts per logical qubit.
	iw := interactionWeights(n, edges)
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.A] += e.Count
		deg[e.B] += e.Count
	}
	measures := make([]int, n)
	for _, op := range logical.Ops {
		if op.Kind == circuit.Measure {
			measures[op.Qubits[0]]++
		}
	}
	order := placeOrder(n, edges, deg)

	bestCost := math.Inf(1)
	var bestLayout []int
	for seed := 0; seed < c.devN; seed++ {
		layout, cost := c.placeFrom(order, iw, measures, seed, n)
		if layout != nil && cost < bestCost {
			bestCost = cost
			bestLayout = layout
		}
	}
	if bestLayout == nil {
		return nil, fmt.Errorf("mapper: placement failed (device too small or disconnected)")
	}
	return bestLayout, nil
}

// placeOrder returns logical qubits ordered for placement: descending
// weighted degree, then (for subsequent picks) most connectivity to the
// already-ordered prefix.
func placeOrder(n int, edges []circuit.InteractionEdge, deg []int) []int {
	adj := make([]map[int]int, n)
	for i := range adj {
		adj[i] = map[int]int{}
	}
	for _, e := range edges {
		adj[e.A][e.B] += e.Count
		adj[e.B][e.A] += e.Count
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	for len(order) < n {
		best, bestConn, bestDeg := -1, -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			conn := 0
			for u, w := range adj[v] {
				if placed[u] {
					conn += w
				}
			}
			if conn > bestConn || (conn == bestConn && deg[v] > bestDeg) ||
				(conn == bestConn && deg[v] == bestDeg && (best == -1 || v < best)) {
				best, bestConn, bestDeg = v, conn, deg[v]
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

// interactionWeights folds the interaction edges into a dense symmetric
// n x n matrix: placeFrom reads pair weights in its innermost loop, where
// the map lookups this replaced dominated placement time.
func interactionWeights(n int, edges []circuit.InteractionEdge) [][]int {
	buf := make([]int, n*n)
	iw := make([][]int, n)
	for i := range iw {
		iw[i] = buf[i*n : (i+1)*n]
	}
	for _, e := range edges {
		iw[e.A][e.B] += e.Count
		iw[e.B][e.A] += e.Count
	}
	return iw
}

// placeFrom runs one greedy placement with the first ordered qubit pinned
// to the given physical seed. It returns (nil, inf) if placement is
// impossible.
func (c *Compiler) placeFrom(order []int, iw [][]int, measures []int, seed, n int) ([]int, float64) {
	layout := make([]int, n)
	for i := range layout {
		layout[i] = -1
	}
	used := make([]bool, c.devN)
	total := 0.0
	for i, lq := range order {
		var bestP int = -1
		bestCost := math.Inf(1)
		for p := 0; p < c.devN; p++ {
			if used[p] {
				continue
			}
			if i == 0 && p != seed {
				continue
			}
			cost := float64(measures[lq]) * c.measCost[p]
			for other, po := range layout {
				if po < 0 {
					continue
				}
				w := iw[lq][other]
				if w == 0 {
					continue
				}
				pc := c.pathCost[p][po]
				if math.IsInf(pc, 1) {
					cost = math.Inf(1)
					break
				}
				cost += float64(w) * pc
			}
			if cost < bestCost || (cost == bestCost && bestP >= 0 && p < bestP) {
				bestCost = cost
				bestP = p
			}
		}
		if bestP == -1 || math.IsInf(bestCost, 1) {
			return nil, math.Inf(1)
		}
		layout[lq] = bestP
		used[bestP] = true
		total += bestCost
	}
	return layout, total
}

// Routing lives in router.go: route/routePinned orchestrate the
// SABRE-style lookahead router against the frozen greedy-walk baseline
// (greedyPass) and materialize whichever variant scores the higher ESP.
