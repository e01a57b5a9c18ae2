package serve

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzJobSpec drives edmd's request body through what the job endpoint
// and RunJob do before any compile: the strict JSON decode, normalize,
// Validate and buildCircuit. Rejecting a body is fine; panicking is not,
// and every refusal after the decode is an ErrBadJob (a 400). A spec
// that passes must give a circuit that validates and measures at least
// one qubit. The seeds are the CI smoke payloads (the bv-6 job, a body
// that is not JSON, the rz(NaN) job), a QASM job, and the edges of the k
// and trials ranges.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{"workload":"bv-6","k":2,"trials":512,"seed":7}`,
		`not json`,
		`{"circuit":"qubits 2\ncbits 2\nx 0\nrz(NaN) 0\nmeasure 0 -> 0\nmeasure 1 -> 1\n","trials":1024}`,
		`{"circuit":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n","format":"qasm","trials":64,"policy":"wedm"}`,
		`{"workload":"bv-6","k":1,"trials":1}`,
		`{"workload":"bv-6","k":64,"trials":64}`,
		`{"workload":"bv-6","k":65,"trials":100}`,
		`{"workload":"bv-6","k":-1,"trials":100}`,
		`{"workload":"bv-6","trials":3}`,
		`{"workload":"bv-6","trials":1048576,"policy":"best"}`,
		`{"workload":"bv-6","trials":1048577}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJob(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec.normalize()
		if err := spec.Validate(); err != nil {
			if !errors.Is(err, ErrBadJob) {
				t.Fatalf("Validate refused with a non-ErrBadJob error: %v", err)
			}
			return
		}
		c, err := spec.buildCircuit()
		if err != nil {
			if !errors.Is(err, ErrBadJob) {
				t.Fatalf("buildCircuit refused with a non-ErrBadJob error: %v", err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted spec built an invalid circuit: %v", err)
		}
		if c.Stats().M == 0 {
			t.Fatal("accepted spec built a circuit that measures no qubit")
		}
	})
}
