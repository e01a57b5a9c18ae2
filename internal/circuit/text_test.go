package circuit

import (
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	c := New(4, 3)
	c.Name = "demo"
	c.H(0).RZ(1, 0.5).U3(2, 0.1, 0.2, 0.3).CX(0, 1).SWAP(2, 3).
		Barrier().Barrier(0, 2).Measure(0, 0).Measure(3, 2)
	text := c.Text()
	parsed, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	if parsed.Name != "demo" || parsed.NumQubits != 4 || parsed.NumClbits != 3 {
		t.Fatalf("header: %q %d %d", parsed.Name, parsed.NumQubits, parsed.NumClbits)
	}
	if len(parsed.Ops) != len(c.Ops) {
		t.Fatalf("ops = %d, want %d", len(parsed.Ops), len(c.Ops))
	}
	if parsed.Text() != text {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", parsed.Text(), text)
	}
}

func TestParseComments(t *testing.T) {
	src := `
# a comment
circuit test
qubits 2
cbits 2

h 0
# another
cx 0 1
measure 1 -> 1
`
	c, err := ParseText(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 3 {
		t.Fatalf("ops = %d", len(c.Ops))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"h 0",                               // missing qubits decl
		"qubits 2\nfrob 0",                  // unknown gate
		"qubits 2\nrz(x) 0",                 // bad param
		"qubits 2\nrz(0.5 0",                // unterminated params
		"qubits 2\nh zero",                  // bad operand
		"qubits 2\ncbits 1\nmeasure 0 to 0", // bad measure syntax
		"qubits 2\nh 5",                     // validation: out of range
		"qubits 2\ncx 0 0",                  // validation: repeated operand
		"qubits 2\nrz 0",                    // validation: missing param
		"qubits -2",                         // bad register
		"qubits 2\ncbits 1\nmeasure 0 -> 4", // bad cbit
		"qubits 2\ncbits 1\nmeasure q -> 0", // bad qubit
		"qubits 2\nbarrier x",               // bad barrier operand
		"circuit a b\nqubits 1",             // circuit name arity
	}
	for _, src := range cases {
		if _, err := ParseText(src); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", src)
		}
	}
}

// TestParseTextRejectsNonFiniteParams: strconv accepts NaN and Inf, which
// would otherwise reach the simulators as gate angles; the parser names
// the line that carries one.
func TestParseTextRejectsNonFiniteParams(t *testing.T) {
	for _, gate := range []string{"rz(NaN) 0", "rz(Inf) 0", "rz(-inf) 0", "u3(NaN,0,0) 0", "u3(0,0,+Inf) 0"} {
		src := "qubits 1\ncbits 1\n" + gate + "\nmeasure 0 -> 0\n"
		_, err := ParseText(src)
		if err == nil || !strings.Contains(err.Error(), "line 3:") || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("ParseText with %q: err = %v, want a line 3 non-finite error", gate, err)
		}
	}
}

func TestTextContainsParams(t *testing.T) {
	c := New(1, 0)
	c.RZ(0, 0.25)
	if !strings.Contains(c.Text(), "rz(0.25) 0") {
		t.Fatalf("Text = %q", c.Text())
	}
}
