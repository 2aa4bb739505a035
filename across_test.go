package across

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// tinyConfig keeps the public-API tests fast.
func tinyConfig() Config {
	c := Table1Config()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

func TestPublicEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	prof, err := Profile("lun1")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateTrace(prof.Scale(0.005), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	results := map[Scheme]*Result{}
	for _, s := range Schemes() {
		res, err := Run(s, cfg, reqs, true)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		results[s] = res
	}
	if results[AcrossFTL].Counters.FlashWrites() >= results[BaselineFTL].Counters.FlashWrites() {
		t.Error("Across-FTL did not reduce flash writes vs baseline")
	}
	if results[MRSM].Counters.Erases <= results[AcrossFTL].Counters.Erases {
		t.Error("MRSM should erase most")
	}
}

func TestTraceRoundTripThroughPublicAPI(t *testing.T) {
	cfg := tinyConfig()
	prof, _ := Profile("lun2")
	reqs, err := GenerateTrace(prof.Scale(0.001), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 3, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("round trip lost requests: %d != %d", len(back), len(reqs))
	}
	st := TraceStats(back, 8192)
	if st.Requests != int64(len(reqs)) {
		t.Fatal("stats mismatch")
	}
}

func TestProfilesAndCollection(t *testing.T) {
	if len(Profiles()) != 6 {
		t.Error("want 6 lun profiles")
	}
	if len(Collection(10)) != 10 {
		t.Error("collection size mismatch")
	}
	if _, err := Profile("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestConfigConstructors(t *testing.T) {
	full := Table1Config()
	if full.BlocksTotal() != 262144 {
		t.Error("Table1Config wrong")
	}
	exp := ExperimentConfig()
	if exp.BlocksTotal() >= full.BlocksTotal() {
		t.Error("ExperimentConfig not scaled")
	}
	half := ScaledConfig(2)
	if half.BlocksTotal() != full.BlocksTotal()/2 {
		t.Error("ScaledConfig wrong")
	}
}

// extensionIDs mirrors the extension registry for the count check.
func extensionIDs() []string {
	return []string{"ext-tail", "ext-wear", "ext-dftl", "ext-util", "ext-timeline", "ext-fleet", "ext-scenario"}
}

func TestExperimentIDsAndRunner(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 11+len(extensionIDs()) {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	cfg := ExperimentConfigDefaults()
	cfg.SSD = tinyConfig()
	cfg.Scale = 0.002
	cfg.CollectionSize = 4
	var buf bytes.Buffer
	if err := RunExperiment("table2", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lun6") {
		t.Error("table2 output incomplete")
	}
	if err := RunExperiment("nope", cfg, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunnerReplaysSequentially(t *testing.T) {
	cfg := tinyConfig()
	r, err := NewRunner(AcrossFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := Profile("lun3")
	reqs, err := GenerateTrace(prof.Scale(0.001), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The second replay hits an already-populated mapping: fewer first-write
	// paths, so flash writes can differ, but both must be well-formed.
	if res1.Requests != res2.Requests {
		t.Error("request counts differ across replays")
	}
}

func TestRecoverFromCrashPublicAPI(t *testing.T) {
	cfg := tinyConfig()
	r, err := NewRunner(AcrossFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := Profile("lun1")
	reqs, err := GenerateTrace(prof.Scale(0.003), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverFromCrash(r)
	if err != nil {
		t.Fatal(err)
	}
	after, err := rec.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if after.Requests != before.Requests {
		t.Fatal("recovered runner dropped requests")
	}
}

// TestRecoverFromCrashRefusal pins the refusal contract: a scheme that
// cannot rebuild its mapping from flash says so with ErrRecoveryUnsupported.
func TestRecoverFromCrashRefusal(t *testing.T) {
	for _, kind := range []Scheme{MRSM, DFTL} {
		r, err := NewRunner(kind, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverFromCrash(r)
		if !errors.Is(err, ErrRecoveryUnsupported) || rec != nil {
			t.Errorf("%s: RecoverFromCrash = (%v, %v), want ErrRecoveryUnsupported", kind, rec, err)
		}
	}
}

func TestReadTraceAutoDetectsFormats(t *testing.T) {
	systor := "100.0,0,W,0,1052672,6144\n"
	msr := "1000000000,h,0,Write,1052672,6144,0\n"
	a, err := ReadTraceAuto(strings.NewReader(systor))
	if err != nil || len(a) != 1 || a[0].Count != 12 {
		t.Fatalf("systor auto-parse = (%v, %v)", a, err)
	}
	b, err := ReadMSRTrace(strings.NewReader(msr))
	if err != nil || len(b) != 1 || b[0].Count != 12 {
		t.Fatalf("msr parse = (%v, %v)", b, err)
	}
	c, err := ReadTraceAuto(strings.NewReader(msr))
	if err != nil || len(c) != 1 || c[0].Op != a[0].Op {
		t.Fatalf("msr auto-parse = (%v, %v)", c, err)
	}
	if _, err := ReadTraceAuto(strings.NewReader("one,two\n")); err == nil {
		t.Fatal("bogus format accepted")
	}
}

func TestDefaultAgingExported(t *testing.T) {
	a := DefaultAging()
	if a.ValidFrac != 0.398 || a.UsedFrac != 0.90 {
		t.Fatalf("DefaultAging = %+v, want the paper's §4.1 setting", a)
	}
}
