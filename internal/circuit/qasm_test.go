package circuit

import (
	"strings"
	"testing"
)

func TestQASMOutput(t *testing.T) {
	c := New(3, 2)
	c.Name = "demo"
	c.H(0).RZ(1, 0.5).U3(2, 0.1, 0.2, 0.3).CX(0, 1).SWAP(1, 2).
		Barrier().Barrier(0, 2).Measure(0, 0).Measure(2, 1)
	q := c.QASM()
	want := []string{
		"OPENQASM 2.0;",
		`include "qelib1.inc";`,
		"// circuit: demo",
		"qreg q[3];",
		"creg c[2];",
		"h q[0];",
		"rz(0.5) q[1];",
		"u3(0.1,0.2,0.3) q[2];",
		"cx q[0],q[1];",
		"swap q[1],q[2];",
		"barrier q;",
		"barrier q[0],q[2];",
		"measure q[0] -> c[0];",
		"measure q[2] -> c[1];",
	}
	for _, w := range want {
		if !strings.Contains(q, w) {
			t.Errorf("QASM missing %q:\n%s", w, q)
		}
	}
	// Lines in program order.
	if strings.Index(q, "h q[0]") > strings.Index(q, "cx q[0]") {
		t.Error("QASM op order wrong")
	}
}

func TestQASMNoClassicalRegister(t *testing.T) {
	c := New(1, 0)
	c.X(0)
	q := c.QASM()
	if strings.Contains(q, "creg") {
		t.Errorf("empty classical register emitted:\n%s", q)
	}
}

func FuzzParseText(f *testing.F) {
	seeds := []string{
		"qubits 2\ncbits 2\nh 0\ncx 0 1\nmeasure 0 -> 0\n",
		"circuit x\nqubits 3\nswap 0 2\nbarrier\n",
		"qubits 1\nrz(0.5) 0\n",
		"qubits 2\nu3(1,2,3) 1\n# comment\n",
		"qubits 0\n",
		"qubits 1\ncbits 1\nrz(NaN) 0\nmeasure 0 -> 0\n",
		"qubits 1\nrz(Inf) 0\n",
		"qubits 1\nu3(NaN,0,0) 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseText(src)
		if err != nil {
			return // rejection is fine; crashing is not
		}
		// Anything accepted must be valid and round-trip stably.
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseText accepted invalid circuit: %v", err)
		}
		text := c.Text()
		c2, err := ParseText(text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		if c2.Text() != text {
			t.Fatalf("round trip unstable:\n%q\nvs\n%q", c2.Text(), text)
		}
	})
}
