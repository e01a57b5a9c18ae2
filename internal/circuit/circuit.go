package circuit

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Op is one operation in a circuit.
type Op struct {
	Kind   Kind
	Qubits []int     // operand qubits; for CX, Qubits[0] is the control
	Params []float64 // rotation parameters, if any
	Cbit   int       // classical destination for Measure; -1 otherwise
}

// NewOp builds a validated Op. Most callers use the Circuit builder
// methods instead.
func NewOp(k Kind, qubits []int, params []float64, cbit int) Op {
	return Op{Kind: k, Qubits: qubits, Params: params, Cbit: cbit}
}

// Clone returns a deep copy of the op.
func (o Op) Clone() Op {
	c := o
	c.Qubits = append([]int(nil), o.Qubits...)
	c.Params = append([]float64(nil), o.Params...)
	return c
}

// Circuit is an ordered quantum program over NumQubits qubits and
// NumClbits classical bits.
type Circuit struct {
	NumQubits int
	NumClbits int
	Ops       []Op
	Name      string

	// fp caches the semantic fingerprint (fingerprint.go). The builder
	// API only ever appends ops, so a cached hash is valid exactly while
	// len(Ops) is unchanged; the pointer makes concurrent Fingerprint
	// calls on a shared circuit race-free. Clone and composite literals
	// leave it nil, which just means "not computed yet".
	fp atomic.Pointer[fpCache]
}

// fpCache pairs a fingerprint with the op count it was computed at.
type fpCache struct {
	nOps int
	hash uint64
}

// New returns an empty circuit with the given register sizes.
func New(numQubits, numClbits int) *Circuit {
	if numQubits < 0 || numClbits < 0 {
		panic("circuit: negative register size")
	}
	return &Circuit{NumQubits: numQubits, NumClbits: numClbits}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits, NumClbits: c.NumClbits, Name: c.Name}
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
		out.Ops[i] = op.Clone()
	}
	return out
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

func (c *Circuit) checkCbit(b int) {
	if b < 0 || b >= c.NumClbits {
		panic(fmt.Sprintf("circuit: classical bit %d out of range [0,%d)", b, c.NumClbits))
	}
}

func (c *Circuit) add1q(k Kind, q int, params ...float64) *Circuit {
	c.checkQubit(q)
	if len(params) != k.NumParams() {
		panic(fmt.Sprintf("circuit: %v expects %d params, got %d", k, k.NumParams(), len(params)))
	}
	c.Ops = append(c.Ops, Op{Kind: k, Qubits: []int{q}, Params: params, Cbit: -1})
	return c
}

func (c *Circuit) add2q(k Kind, a, b int) *Circuit {
	c.checkQubit(a)
	c.checkQubit(b)
	if a == b {
		panic(fmt.Sprintf("circuit: %v with identical operands %d", k, a))
	}
	c.Ops = append(c.Ops, Op{Kind: k, Qubits: []int{a, b}, Cbit: -1})
	return c
}

// The builder methods append a gate and return the circuit for chaining.

// ID appends an identity gate (an explicit idle slot).
func (c *Circuit) ID(q int) *Circuit { return c.add1q(I, q) }

// X appends a Pauli-X gate.
func (c *Circuit) X(q int) *Circuit { return c.add1q(X, q) }

// Y appends a Pauli-Y gate.
func (c *Circuit) Y(q int) *Circuit { return c.add1q(Y, q) }

// Z appends a Pauli-Z gate.
func (c *Circuit) Z(q int) *Circuit { return c.add1q(Z, q) }

// H appends a Hadamard gate.
func (c *Circuit) H(q int) *Circuit { return c.add1q(H, q) }

// S appends a phase gate S.
func (c *Circuit) S(q int) *Circuit { return c.add1q(S, q) }

// Sdg appends the inverse phase gate.
func (c *Circuit) Sdg(q int) *Circuit { return c.add1q(Sdg, q) }

// T appends a T gate.
func (c *Circuit) T(q int) *Circuit { return c.add1q(T, q) }

// Tdg appends the inverse T gate.
func (c *Circuit) Tdg(q int) *Circuit { return c.add1q(Tdg, q) }

// RX appends a rotation about X by theta.
func (c *Circuit) RX(q int, theta float64) *Circuit { return c.add1q(RX, q, theta) }

// RY appends a rotation about Y by theta.
func (c *Circuit) RY(q int, theta float64) *Circuit { return c.add1q(RY, q, theta) }

// RZ appends a rotation about Z by theta.
func (c *Circuit) RZ(q int, theta float64) *Circuit { return c.add1q(RZ, q, theta) }

// U1 appends the IBM U1 (phase) gate.
func (c *Circuit) U1(q int, lambda float64) *Circuit { return c.add1q(U1, q, lambda) }

// U2 appends the IBM U2 gate.
func (c *Circuit) U2(q int, phi, lambda float64) *Circuit { return c.add1q(U2, q, phi, lambda) }

// U3 appends the IBM U3 gate.
func (c *Circuit) U3(q int, theta, phi, lambda float64) *Circuit {
	return c.add1q(U3, q, theta, phi, lambda)
}

// CX appends a controlled-NOT with the given control and target.
func (c *Circuit) CX(control, target int) *Circuit { return c.add2q(CX, control, target) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) *Circuit { return c.add2q(CZ, a, b) }

// SWAP appends a SWAP gate.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.add2q(SWAP, a, b) }

// Measure appends a measurement of qubit q into classical bit b.
func (c *Circuit) Measure(q, b int) *Circuit {
	c.checkQubit(q)
	c.checkCbit(b)
	c.Ops = append(c.Ops, Op{Kind: Measure, Qubits: []int{q}, Cbit: b})
	return c
}

// MeasureAll measures qubit i into classical bit i for all i. It panics if
// the classical register is smaller than the quantum register.
func (c *Circuit) MeasureAll() *Circuit {
	if c.NumClbits < c.NumQubits {
		panic("circuit: MeasureAll needs NumClbits >= NumQubits")
	}
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q, q)
	}
	return c
}

// Barrier appends a scheduling fence over the given qubits (all qubits if
// none are given).
func (c *Circuit) Barrier(qubits ...int) *Circuit {
	for _, q := range qubits {
		c.checkQubit(q)
	}
	c.Ops = append(c.Ops, Op{Kind: Barrier, Qubits: append([]int(nil), qubits...), Cbit: -1})
	return c
}

// Append adds all operations of other to c. The registers of other must fit
// within c.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.NumQubits > c.NumQubits || other.NumClbits > c.NumClbits {
		panic("circuit: Append source larger than destination")
	}
	for _, op := range other.Ops {
		c.Ops = append(c.Ops, op.Clone())
	}
	return c
}

// Validate checks the register sizes and every operation and returns the
// first problem found, or nil. Circuits built through the builder methods
// on at least one qubit, with finite angles and at least one gate or
// measurement, are always valid; Validate exists for parsed or
// hand-assembled circuits.
func (c *Circuit) Validate() error {
	if c.NumQubits < 0 || c.NumClbits < 0 {
		return fmt.Errorf("circuit: negative register size")
	}
	if c.NumQubits == 0 {
		return fmt.Errorf("circuit: empty register: a circuit needs at least one qubit")
	}
	touched := false
	for i, op := range c.Ops {
		if op.Kind < 0 || op.Kind >= numKinds {
			return fmt.Errorf("circuit: op %d has invalid kind %d", i, int(op.Kind))
		}
		if a := op.Kind.Arity(); a >= 0 && len(op.Qubits) != a {
			return fmt.Errorf("circuit: op %d (%v) has %d operands, want %d", i, op.Kind, len(op.Qubits), a)
		}
		seen := map[int]bool{}
		for _, q := range op.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit: op %d (%v) qubit %d out of range", i, op.Kind, q)
			}
			if seen[q] {
				return fmt.Errorf("circuit: op %d (%v) repeats qubit %d", i, op.Kind, q)
			}
			seen[q] = true
		}
		if len(op.Params) != op.Kind.NumParams() {
			return fmt.Errorf("circuit: op %d (%v) has %d params, want %d", i, op.Kind, len(op.Params), op.Kind.NumParams())
		}
		for _, p := range op.Params {
			if !finite(p) {
				return fmt.Errorf("circuit: op %d (%v) has non-finite parameter %v", i, op.Kind, p)
			}
		}
		if op.Kind == Measure {
			if op.Cbit < 0 || op.Cbit >= c.NumClbits {
				return fmt.Errorf("circuit: op %d measures into invalid bit %d", i, op.Cbit)
			}
		}
		touched = touched || op.Kind != Barrier
	}
	if !touched {
		return fmt.Errorf("circuit: no gate or measurement: a circuit must act on at least one qubit")
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Stats summarizes operation counts the way the paper's Table 1 does.
type Stats struct {
	SG    int // one-qubit gates
	CX    int // two-qubit gates, with each SWAP counted as 3 CX
	M     int // measurements
	Swaps int // raw SWAP ops before lowering
}

// Stats returns operation counts. Identity gates and barriers are not
// counted (they exist for scheduling only).
func (c *Circuit) Stats() Stats {
	var s Stats
	for _, op := range c.Ops {
		switch {
		case op.Kind == Measure:
			s.M++
		case op.Kind == SWAP:
			s.Swaps++
			s.CX += 3
		case op.Kind.IsTwoQubit():
			s.CX++
		case op.Kind == Barrier || op.Kind == I:
			// not counted
		default:
			s.SG++
		}
	}
	return s
}

// Depth returns the circuit depth: the length of the longest chain of
// dependent operations, scheduling each op as soon as all its qubits are
// free. Barriers synchronize their qubits but contribute no depth.
func (c *Circuit) Depth() int {
	avail := make([]int, c.NumQubits)
	maxDepth := 0
	for _, op := range c.Ops {
		qs := op.Qubits
		if op.Kind == Barrier && len(qs) == 0 {
			qs = allQubits(c.NumQubits)
		}
		start := 0
		for _, q := range qs {
			if avail[q] > start {
				start = avail[q]
			}
		}
		end := start
		if op.Kind != Barrier {
			end = start + 1
		}
		for _, q := range qs {
			avail[q] = end
		}
		if end > maxDepth {
			maxDepth = end
		}
	}
	return maxDepth
}

func allQubits(n int) []int {
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// UsedQubits returns the sorted set of qubits touched by any non-barrier
// operation.
func (c *Circuit) UsedQubits() []int {
	used := map[int]bool{}
	for _, op := range c.Ops {
		if op.Kind == Barrier {
			continue
		}
		for _, q := range op.Qubits {
			used[q] = true
		}
	}
	out := make([]int, 0, len(used))
	for q := range used {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// InteractionEdge is an undirected qubit pair that shares at least one
// two-qubit gate, with the number of such gates.
type InteractionEdge struct {
	A, B  int // A < B
	Count int
}

// InteractionGraph returns the circuit's two-qubit interaction edges in a
// deterministic order. The mapping compiler places this graph onto the
// device coupling graph.
func (c *Circuit) InteractionGraph() []InteractionEdge {
	counts := map[[2]int]int{}
	for _, op := range c.Ops {
		if !op.Kind.IsTwoQubit() {
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	out := make([]InteractionEdge, 0, len(counts))
	for k, n := range counts {
		out = append(out, InteractionEdge{A: k[0], B: k[1], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Remap returns a copy of the circuit with every qubit q replaced by
// layout[q], acting on a register of numQubits qubits. Classical bits are
// unchanged: measurement results stay in program order, which is what lets
// differently mapped executables produce comparable output distributions.
// layout must be injective and cover every used qubit.
func (c *Circuit) Remap(layout []int, numQubits int) *Circuit {
	if len(layout) < c.NumQubits {
		panic(fmt.Sprintf("circuit: layout has %d entries for %d qubits", len(layout), c.NumQubits))
	}
	seen := map[int]bool{}
	for q := 0; q < c.NumQubits; q++ {
		p := layout[q]
		if p < 0 || p >= numQubits {
			panic(fmt.Sprintf("circuit: layout maps qubit %d to invalid physical qubit %d", q, p))
		}
		if seen[p] {
			panic(fmt.Sprintf("circuit: layout maps two qubits to physical qubit %d", p))
		}
		seen[p] = true
	}
	out := New(numQubits, c.NumClbits)
	out.Name = c.Name
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
		n := op.Clone()
		for j, q := range n.Qubits {
			n.Qubits[j] = layout[q]
		}
		out.Ops[i] = n
	}
	return out
}

// LowerSwaps returns a copy with every SWAP replaced by three CX gates,
// the decomposition actually executed on CX-native hardware.
func (c *Circuit) LowerSwaps() *Circuit {
	out := New(c.NumQubits, c.NumClbits)
	out.Name = c.Name
	for _, op := range c.Ops {
		if op.Kind != SWAP {
			out.Ops = append(out.Ops, op.Clone())
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		out.CX(a, b).CX(b, a).CX(a, b)
	}
	return out
}

// MeasuredBits returns, for each classical bit, the qubit whose final
// measurement writes it, or -1 if the bit is never written. A later
// measurement of the same classical bit overrides an earlier one.
func (c *Circuit) MeasuredBits() []int {
	out := make([]int, c.NumClbits)
	for i := range out {
		out[i] = -1
	}
	for _, op := range c.Ops {
		if op.Kind == Measure {
			out[op.Cbit] = op.Qubits[0]
		}
	}
	return out
}
