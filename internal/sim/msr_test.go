package sim

import (
	"os"
	"testing"

	"across/internal/trace"
)

// loadMSRFixture reads the checked-in MSR Cambridge-format sample — the
// real-trace path the ROADMAP noted was parsed but never replayed.
func loadMSRFixture(t *testing.T) []trace.Request {
	t.Helper()
	f, err := os.Open("../trace/testdata/msr_sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs, err := trace.ReadAllMSR(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 50 {
		t.Fatalf("fixture too small: %d requests", len(reqs))
	}
	return reqs
}

// TestMSRTraceReplaySmoke wires the MSR Cambridge path end to end: parse the
// fixture, replay it on every scheme, and assert the metrics are coherent.
func TestMSRTraceReplaySmoke(t *testing.T) {
	reqs := loadMSRFixture(t)
	conf := smallConf()
	for i, req := range reqs {
		if err := req.Validate(conf.LogicalSectors()); err != nil {
			t.Fatalf("fixture request %d invalid for test device: %v", i, err)
		}
	}
	st := trace.Measure(reqs, conf.SectorsPerPage())
	if st.AcrossRatio() == 0 {
		t.Error("fixture exercises no across-page requests")
	}
	for _, kind := range append(Kinds(), KindDFTL) {
		serial := replaySerial(t, kind, reqs, 0)
		if serial.Requests != int64(len(reqs)) {
			t.Errorf("%s: replayed %d of %d MSR requests", kind, serial.Requests, len(reqs))
		}
		if serial.WriteCount == 0 || serial.ReadCount == 0 {
			t.Errorf("%s: MSR fixture should mix directions: %d reads, %d writes",
				kind, serial.ReadCount, serial.WriteCount)
		}
		if serial.Counters.FlashWrites() == 0 {
			t.Errorf("%s: no flash writes from MSR replay", kind)
		}
	}
}
