package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"edm/internal/backend"
	"edm/internal/bitstr"
)

func TestNewServiceUnknownDevice(t *testing.T) {
	cfg := testConfig()
	cfg.Device = "osprey433"
	if _, err := NewService(cfg); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Fatalf("err = %v, want unknown-device error", err)
	}
}

// TestWideDeviceJobUsesStabilizer runs a Clifford workload on the
// 127-qubit heavy-hex Eagle — a device no statevector in this process
// could represent — and checks the job both succeeds and was actually
// served by the tableau engine. Advancing the window rebuilds the
// 127-qubit compiler and machine for the next calibration.
func TestWideDeviceJobUsesStabilizer(t *testing.T) {
	cfg := testConfig()
	cfg.Device = "eagle127"
	svc := mustService(t, cfg)
	if got := svc.DeviceName(); got != "eagle127" {
		t.Fatalf("DeviceName = %q", got)
	}
	spec := &JobSpec{Workload: "greycode-24", K: 2, Trials: 512, Seed: 7}
	backend.ResetEngineStats()
	res, err := svc.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := res.MostLikely()
	if !ok || top.Outcome != "101010101010101010101010" {
		t.Fatalf("most likely = %+v, want the alternating golden output", top)
	}
	st := backend.EngineStatsSnapshot()
	if st.StabTrials == 0 || st.StabPrograms == 0 {
		t.Fatalf("engine stats %+v: wide Clifford job did not run on the tableau", st)
	}
	if st.StabFallbacks != 0 {
		t.Fatalf("engine stats %+v: unexpected statevector fallbacks", st)
	}
	if m := svc.Snapshot(false); m.Device != "eagle127" || m.Engine.StabTrials == 0 {
		t.Fatalf("snapshot = %+v, want device and engine counters surfaced", m)
	}

	if w := svc.Advance(); w != 1 {
		t.Fatalf("Advance = %d", w)
	}
	res1, err := svc.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatalf("post-advance job: %v", err)
	}
	if res1.Window != 1 {
		t.Fatalf("post-advance window = %d", res1.Window)
	}
}

// TestRunJobRejectsTooManyClbits: a circuit measuring more classical
// bits than one histogram word holds is a payload error (4xx), caught
// before any compile or simulation starts.
func TestRunJobRejectsTooManyClbits(t *testing.T) {
	svc := mustService(t, testConfig())
	n := bitstr.MaxBits + 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "qubits %d\ncbits %d\n", n, n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&sb, "measure %d -> %d\n", q, q)
	}
	spec := &JobSpec{Circuit: sb.String(), Trials: 100}
	_, err := svc.RunJob(context.Background(), spec)
	if !errors.Is(err, ErrBadJob) || !strings.Contains(err.Error(), "classical bits") {
		t.Fatalf("err = %v, want ErrBadJob about classical bits", err)
	}
}
