package experiment

import (
	"reflect"
	"testing"

	"edm/internal/backend"
	"edm/internal/device"
)

// TestDriftCampaignHeavyHex runs the drifting campaign on the 27-qubit
// heavy-hex Falcon with the Clifford-clean profile: the drift-tracked
// pools must stay bit-identical to full rebuilds past 14 qubits, and the
// fully-Clifford compiled workloads must actually execute on the
// stabilizer engine.
func TestDriftCampaignHeavyHex(t *testing.T) {
	s := QuickDriftSetup()
	s.Cycles = 3
	s.Trials = 512
	s.K = 2
	s.Topo = device.HeavyHexFalcon27()
	s.Profile = device.HeavyHexProfile()
	s.Workloads = []string{"greycode-6", "greycode-12", "bv-6"}

	backend.ResetEngineStats()
	ResetCampaignCaches()
	inc := RunDrifting(s)
	ResetCampaignCaches()
	full := runDrifting(s, false)

	if !reflect.DeepEqual(cellsOf(inc), cellsOf(full)) {
		t.Fatal("heavy-hex tracked campaign cells differ from full recompilation")
	}
	if inc.Stats.Rescored == 0 {
		t.Fatalf("heavy-hex tracked campaign never upgraded a pool: %+v", inc.Stats)
	}
	es := backend.EngineStatsSnapshot()
	if es.StabTrials == 0 || es.StabPrograms == 0 {
		t.Fatalf("engine stats %+v: Clifford-clean heavy-hex campaign never used the tableau", es)
	}
	if es.StabFallbacks != 0 {
		t.Fatalf("engine stats %+v: unexpected statevector fallbacks", es)
	}
}
