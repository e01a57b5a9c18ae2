package circuit

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseQASM parses the OpenQASM 2.0 subset this package emits (and that
// covers the paper's workloads): a single quantum and a single classical
// register, the qelib1 gates of this IR, measure and barrier. Register
// names are arbitrary; comments and the include directive are ignored.
// Together with (*Circuit).QASM this gives lossless round-tripping, so
// circuits can move between this library and the IBM toolchain. Errors
// name the line on which the offending statement starts.
func ParseQASM(src string) (*Circuit, error) {
	c := New(0, 0)
	qreg, creg := "", ""
	sawVersion := false

	// Strip line comments, then split into ';'-terminated statements.
	var cleaned strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			// Keep a possible circuit-name annotation.
			comment := strings.TrimSpace(line[i+2:])
			if strings.HasPrefix(comment, "circuit:") {
				c.Name = strings.TrimSpace(strings.TrimPrefix(comment, "circuit:"))
			}
			line = line[:i]
		}
		cleaned.WriteString(line)
		cleaned.WriteByte('\n')
	}
	line := 1 // line on which raw starts
	for _, raw := range strings.Split(cleaned.String(), ";") {
		stmt := strings.TrimSpace(raw)
		lead := raw[:strings.Index(raw, stmt)]
		at := line + strings.Count(lead, "\n")
		line += strings.Count(raw, "\n")
		if stmt == "" {
			continue
		}
		switch {
		case strings.HasPrefix(stmt, "OPENQASM"):
			sawVersion = true
		case strings.HasPrefix(stmt, "include"):
			// qelib1.inc is assumed.
		case strings.HasPrefix(stmt, "qreg"):
			name, size, err := parseReg(stmt[4:])
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: %w", at, err)
			}
			if qreg != "" {
				return nil, fmt.Errorf("circuit: line %d: multiple qregs unsupported", at)
			}
			qreg, c.NumQubits = name, size
		case strings.HasPrefix(stmt, "creg"):
			name, size, err := parseReg(stmt[4:])
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: %w", at, err)
			}
			if creg != "" {
				return nil, fmt.Errorf("circuit: line %d: multiple cregs unsupported", at)
			}
			creg, c.NumClbits = name, size
		case strings.HasPrefix(stmt, "measure"):
			parts := strings.Split(stmt[len("measure"):], "->")
			if len(parts) != 2 {
				return nil, fmt.Errorf("circuit: line %d: malformed measure", at)
			}
			q, err := parseIndexed(strings.TrimSpace(parts[0]), qreg)
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: %w", at, err)
			}
			b, err := parseIndexed(strings.TrimSpace(parts[1]), creg)
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: %w", at, err)
			}
			c.Ops = append(c.Ops, Op{Kind: Measure, Qubits: []int{q}, Cbit: b})
		case strings.HasPrefix(stmt, "barrier"):
			operand := strings.TrimSpace(stmt[len("barrier"):])
			if operand == qreg && qreg != "" {
				c.Ops = append(c.Ops, Op{Kind: Barrier, Cbit: -1})
				continue
			}
			var qs []int
			for _, piece := range strings.Split(operand, ",") {
				q, err := parseIndexed(strings.TrimSpace(piece), qreg)
				if err != nil {
					return nil, fmt.Errorf("circuit: line %d: %w", at, err)
				}
				qs = append(qs, q)
			}
			c.Ops = append(c.Ops, Op{Kind: Barrier, Qubits: qs, Cbit: -1})
		default:
			op, err := parseGateStmt(stmt, qreg)
			if err != nil {
				return nil, fmt.Errorf("circuit: line %d: %w", at, err)
			}
			c.Ops = append(c.Ops, op)
		}
	}
	if !sawVersion {
		return nil, fmt.Errorf("circuit: missing OPENQASM version header")
	}
	if qreg == "" {
		return nil, fmt.Errorf("circuit: missing qreg declaration")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '[')
	close := strings.IndexByte(s, ']')
	if open <= 0 || close != len(s)-1 {
		return "", 0, fmt.Errorf("malformed register declaration %q", s)
	}
	size, err := strconv.Atoi(s[open+1 : close])
	if err != nil || size < 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	return strings.TrimSpace(s[:open]), size, nil
}

// parseIndexed parses reg[i] and checks the register name.
func parseIndexed(s, reg string) (int, error) {
	open := strings.IndexByte(s, '[')
	close := strings.IndexByte(s, ']')
	if open <= 0 || close != len(s)-1 {
		return 0, fmt.Errorf("malformed operand %q", s)
	}
	if name := strings.TrimSpace(s[:open]); name != reg {
		return 0, fmt.Errorf("unknown register %q in %q", name, s)
	}
	idx, err := strconv.Atoi(s[open+1 : close])
	if err != nil {
		return 0, fmt.Errorf("bad index in %q", s)
	}
	return idx, nil
}

func parseGateStmt(stmt, qreg string) (Op, error) {
	// Split "name(params) operands" — the first space outside parentheses
	// separates the head from the operand list.
	depth, split := 0, -1
	for i, r := range stmt {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ' ', '\t':
			if depth == 0 {
				split = i
			}
		}
		if split >= 0 {
			break
		}
	}
	if split < 0 {
		return Op{}, fmt.Errorf("malformed gate statement %q", stmt)
	}
	head := stmt[:split]
	operands := strings.TrimSpace(stmt[split:])

	name := head
	var params []float64
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return Op{}, fmt.Errorf("unterminated parameters in %q", head)
		}
		name = head[:i]
		for _, ps := range strings.Split(head[i+1:len(head)-1], ",") {
			ps = strings.TrimSpace(ps)
			if ps == "" {
				continue
			}
			v, err := parseQASMFloat(ps)
			if err != nil {
				return Op{}, err
			}
			if !finite(v) {
				return Op{}, fmt.Errorf("parameter %q is not a finite number", ps)
			}
			params = append(params, v)
		}
	}
	kind, ok := KindFromName(name)
	if !ok || kind == Measure || kind == Barrier {
		return Op{}, fmt.Errorf("unsupported gate %q", name)
	}
	var qs []int
	for _, piece := range strings.Split(operands, ",") {
		q, err := parseIndexed(strings.TrimSpace(piece), qreg)
		if err != nil {
			return Op{}, err
		}
		qs = append(qs, q)
	}
	return Op{Kind: kind, Qubits: qs, Params: params, Cbit: -1}, nil
}

// parseQASMFloat accepts plain floats plus the pi idioms common in QASM
// sources: "pi", "-pi", "pi/2", "2*pi", "-pi/4".
func parseQASMFloat(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	const pi = 3.141592653589793
	neg := false
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "-") {
		neg = true
		t = strings.TrimSpace(t[1:])
	}
	var v float64
	switch {
	case t == "pi":
		v = pi
	case strings.HasPrefix(t, "pi/"):
		d, err := strconv.ParseFloat(t[3:], 64)
		if err != nil || d == 0 {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		v = pi / d
	case strings.HasSuffix(t, "*pi"):
		f, err := strconv.ParseFloat(t[:len(t)-3], 64)
		if err != nil {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		v = f * pi
	default:
		return 0, fmt.Errorf("bad parameter %q", s)
	}
	if neg {
		v = -v
	}
	return v, nil
}
