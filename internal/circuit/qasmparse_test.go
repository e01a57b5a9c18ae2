package circuit

import (
	"math"
	"strings"
	"testing"
)

func TestParseQASMRoundTrip(t *testing.T) {
	c := New(4, 3)
	c.Name = "demo"
	c.H(0).X(1).RZ(2, 0.5).U3(3, 0.1, 0.2, 0.3).CX(0, 1).CZ(1, 2).SWAP(2, 3).
		Barrier().Barrier(0, 2).Measure(0, 0).Measure(3, 2)
	parsed, err := ParseQASM(c.QASM())
	if err != nil {
		t.Fatalf("ParseQASM: %v\n%s", err, c.QASM())
	}
	if parsed.Name != "demo" {
		t.Errorf("name = %q", parsed.Name)
	}
	if parsed.NumQubits != 4 || parsed.NumClbits != 3 {
		t.Fatalf("registers %d/%d", parsed.NumQubits, parsed.NumClbits)
	}
	if len(parsed.Ops) != len(c.Ops) {
		t.Fatalf("ops %d, want %d", len(parsed.Ops), len(c.Ops))
	}
	for i := range c.Ops {
		if parsed.Ops[i].Kind != c.Ops[i].Kind {
			t.Fatalf("op %d kind %v, want %v", i, parsed.Ops[i].Kind, c.Ops[i].Kind)
		}
	}
	// Second round trip is stable.
	again, err := ParseQASM(parsed.QASM())
	if err != nil {
		t.Fatal(err)
	}
	if again.QASM() != parsed.QASM() {
		t.Fatal("QASM round trip unstable")
	}
}

func TestParseQASMPiIdioms(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rz(pi) q[0];
rx(pi/2) q[0];
ry(-pi/4) q[0];
u1(2*pi) q[0];
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi, math.Pi / 2, -math.Pi / 4, 2 * math.Pi}
	for i, w := range want {
		if got := c.Ops[i].Params[0]; math.Abs(got-w) > 1e-12 {
			t.Errorf("op %d param = %v, want %v", i, got, w)
		}
	}
}

func TestParseQASMCustomRegisterNames(t *testing.T) {
	src := `OPENQASM 2.0;
qreg data[2];
creg out[2];
h data[0];
cx data[0],data[1];
measure data[1] -> out[0];
barrier data;
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || c.NumClbits != 2 || len(c.Ops) != 4 {
		t.Fatalf("parsed wrong: %d/%d ops %d", c.NumQubits, c.NumClbits, len(c.Ops))
	}
	if c.Ops[3].Kind != Barrier || len(c.Ops[3].Qubits) != 0 {
		t.Fatalf("whole-register barrier wrong: %+v", c.Ops[3])
	}
}

func TestParseQASMErrors(t *testing.T) {
	cases := []string{
		"",                                    // no version
		"OPENQASM 2.0;",                       // no qreg
		"OPENQASM 2.0; qreg q[2]; qreg r[2];", // two qregs
		"OPENQASM 2.0; qreg q[2]; creg c[1]; creg d[1];",            // two cregs
		"OPENQASM 2.0; qreg q[2]; frob q[0];",                       // unknown gate
		"OPENQASM 2.0; qreg q[2]; h r[0];",                          // unknown register
		"OPENQASM 2.0; qreg q[2]; h q[5];",                          // out of range
		"OPENQASM 2.0; qreg q[2]; rz(x) q[0];",                      // bad param
		"OPENQASM 2.0; qreg q[2]; cx q[0],q[0];",                    // repeated operand
		"OPENQASM 2.0; qreg q[2]; creg c[1]; measure q[0] to c[0];", // bad arrow
		"OPENQASM 2.0; qreg q[-1];",                                 // bad size
		"OPENQASM 2.0; qreg q[2]; h;",                               // missing operand (statement malformed)
	}
	for _, src := range cases {
		if _, err := ParseQASM(src); err == nil {
			t.Errorf("ParseQASM(%q) succeeded", src)
		}
	}
}

// TestParseQASMRejectsNonFiniteParams: a literal NaN and a pi idiom that
// overflows to Inf are both rejected with the line of their statement.
func TestParseQASMRejectsNonFiniteParams(t *testing.T) {
	for _, gate := range []string{"rz(nan) q[0];", "rz(NaN) q[0];", "rz(inf) q[0];", "rz(pi/1e-320) q[0];", "u3(1e308*pi,0,0) q[0];"} {
		src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n" + gate + "\nmeasure q[0] -> c[0];\n"
		_, err := ParseQASM(src)
		if err == nil || !strings.Contains(err.Error(), "line 5:") || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("ParseQASM with %q: err = %v, want a line 5 non-finite error", gate, err)
		}
	}
}

func TestParseQASMWorkloadInterop(t *testing.T) {
	// A hand-written IBM-style program computes the same distribution
	// after import as the natively built equivalent.
	src := `// Bell pair, qiskit style
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	imported, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	native := New(2, 2)
	native.H(0).CX(0, 1).MeasureAll()
	a := propagate(stripMeasures(imported))
	b := propagate(stripMeasures(native))
	for i := range a {
		if d := a[i] - b[i]; math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
			t.Fatalf("amplitude %d differs", i)
		}
	}
	if !strings.Contains(imported.QASM(), "cx q[0],q[1];") {
		t.Fatal("re-export wrong")
	}
}

func stripMeasures(c *Circuit) *Circuit {
	out := New(c.NumQubits, 0)
	for _, op := range c.Ops {
		if op.Kind == Measure || op.Kind == Barrier {
			continue
		}
		out.Ops = append(out.Ops, op.Clone())
	}
	return out
}
