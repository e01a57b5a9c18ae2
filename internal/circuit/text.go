package circuit

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// This file implements a small textual circuit format used by the CLI for
// dumping compiled executables and by tests for golden comparisons. It is a
// deliberately tiny QASM-like dialect:
//
//	# comment
//	circuit bv-6
//	qubits 7
//	cbits 6
//	h 0
//	rz(0.5) 2
//	u3(0.1,0.2,0.3) 1
//	cx 0 1
//	swap 2 3
//	measure 4 -> 4
//	barrier
//	barrier 0 1

// Text renders the circuit in the textual format.
func (c *Circuit) Text() string {
	var sb strings.Builder
	if c.Name != "" {
		fmt.Fprintf(&sb, "circuit %s\n", c.Name)
	}
	fmt.Fprintf(&sb, "qubits %d\n", c.NumQubits)
	fmt.Fprintf(&sb, "cbits %d\n", c.NumClbits)
	for _, op := range c.Ops {
		switch op.Kind {
		case Measure:
			fmt.Fprintf(&sb, "measure %d -> %d\n", op.Qubits[0], op.Cbit)
		case Barrier:
			sb.WriteString("barrier")
			for _, q := range op.Qubits {
				fmt.Fprintf(&sb, " %d", q)
			}
			sb.WriteByte('\n')
		default:
			sb.WriteString(op.Kind.String())
			if len(op.Params) > 0 {
				sb.WriteByte('(')
				for i, p := range op.Params {
					if i > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
				}
				sb.WriteByte(')')
			}
			for _, q := range op.Qubits {
				fmt.Fprintf(&sb, " %d", q)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// ParseText parses the textual circuit format produced by Text.
func ParseText(src string) (*Circuit, error) {
	sc := bufio.NewScanner(strings.NewReader(src))
	c := New(0, 0)
	lineNo := 0
	sawQubits := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		head := fields[0]
		switch head {
		case "circuit":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: circuit needs one name", lineNo)
			}
			c.Name = fields[1]
			continue
		case "qubits":
			n, err := parseRegSize(fields, lineNo)
			if err != nil {
				return nil, err
			}
			c.NumQubits = n
			sawQubits = true
			continue
		case "cbits":
			n, err := parseRegSize(fields, lineNo)
			if err != nil {
				return nil, err
			}
			c.NumClbits = n
			continue
		case "measure":
			// measure q -> b
			if len(fields) != 4 || fields[2] != "->" {
				return nil, fmt.Errorf("line %d: measure syntax is 'measure q -> b'", lineNo)
			}
			q, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad qubit %q", lineNo, fields[1])
			}
			b, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad classical bit %q", lineNo, fields[3])
			}
			c.Ops = append(c.Ops, Op{Kind: Measure, Qubits: []int{q}, Cbit: b})
			continue
		case "barrier":
			qs := make([]int, 0, len(fields)-1)
			for _, f := range fields[1:] {
				q, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad qubit %q", lineNo, f)
				}
				qs = append(qs, q)
			}
			c.Ops = append(c.Ops, Op{Kind: Barrier, Qubits: qs, Cbit: -1})
			continue
		}
		// Gate line: name or name(p1,p2,...).
		name := head
		var params []float64
		if i := strings.IndexByte(head, '('); i >= 0 {
			if !strings.HasSuffix(head, ")") {
				return nil, fmt.Errorf("line %d: unterminated parameter list", lineNo)
			}
			name = head[:i]
			for _, ps := range strings.Split(head[i+1:len(head)-1], ",") {
				ps = strings.TrimSpace(ps)
				if ps == "" {
					continue
				}
				p, err := strconv.ParseFloat(ps, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad parameter %q", lineNo, ps)
				}
				if !finite(p) {
					return nil, fmt.Errorf("line %d: parameter %q is not a finite number", lineNo, ps)
				}
				params = append(params, p)
			}
		}
		kind, ok := KindFromName(name)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown gate %q", lineNo, name)
		}
		qs := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			q, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad qubit %q", lineNo, f)
			}
			qs = append(qs, q)
		}
		c.Ops = append(c.Ops, Op{Kind: kind, Qubits: qs, Params: params, Cbit: -1})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawQubits {
		return nil, fmt.Errorf("circuit: missing 'qubits' declaration")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseRegSize(fields []string, lineNo int) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("line %d: %s needs one integer", lineNo, fields[0])
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("line %d: bad register size %q", lineNo, fields[1])
	}
	return n, nil
}
