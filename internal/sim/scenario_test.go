package sim

import (
	"testing"

	"across/internal/scenario"
	"across/internal/trace"
)

// scenarioSectors is smallConf's logical capacity (LogicalSectors needs an
// addressable Config).
func scenarioSectors() int64 {
	c := smallConf()
	return c.LogicalSectors()
}

// scenarioStream generates a builtin scenario sized for smallConf's device.
func scenarioStream(t *testing.T, name string, scale float64) []trace.Request {
	t.Helper()
	sc, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Scale(scale).Generate(scenarioSectors())
	if err != nil {
		t.Fatalf("%s: Generate: %v", name, err)
	}
	if len(st.Requests) == 0 {
		t.Fatalf("%s: empty stream", name)
	}
	return st.Requests
}

// TestScenarioReplayDeterminismMatrix is the scenario acceptance gate: for
// every builtin scenario (plus the MSR trace wrapped as a scenario), two
// independent replays of the same stream must produce byte-identical
// Results.
func TestScenarioReplayDeterminismMatrix(t *testing.T) {
	type cell struct {
		name string
		reqs []trace.Request
	}
	cells := []cell{
		{"stationary", scenarioStream(t, "stationary", 0.002)},
		{"burst", scenarioStream(t, "burst", 0.002)},
		{"daynight", scenarioStream(t, "daynight", 0.002)},
		{"mixed", scenarioStream(t, "mixed", 0.002)},
	}
	{
		msr := scenario.FromTrace("msr", loadMSRFixture(t))
		st, err := msr.Generate(scenarioSectors())
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{"msr-trace", st.Requests})
	}
	if testing.Short() {
		cells = cells[:2]
	}
	for _, c := range cells {
		for _, kind := range []SchemeKind{KindAcross, KindFTL} {
			first := replaySerial(t, kind, c.reqs, 0)
			again := replaySerial(t, kind, c.reqs, 0)
			assertIdentical(t, first, again, c.name+"/"+string(kind))
		}
	}
}

// TestScenarioPipelineReproducible re-runs generation and replay from
// scratch and compares the Results: the full scenario pipeline is a
// deterministic function of (scenario, device) across runs.
func TestScenarioPipelineReproducible(t *testing.T) {
	run := func() *Result {
		return replaySerial(t, KindAcross, scenarioStream(t, "mixed", 0.002), 4)
	}
	assertIdentical(t, run(), run(), "re-run")
}
