package across_test

// End-to-end integration tests: the workflows a user of the repository
// actually runs, wired through the public API — trace files on disk,
// multi-phase replays on one aged device, multi-tenant consolidation, and
// full-harness regeneration — with cross-scheme consistency checks.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"across"
)

func integConfig() across.Config {
	c := across.Table1Config()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

// TestTraceFileWorkflow exercises the acrosssim/tracegen workflow: generate
// a trace, write it to disk in SYSTOR format, read it back, replay it.
func TestTraceFileWorkflow(t *testing.T) {
	cfg := integConfig()
	prof, err := across.Profile("lun4")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := across.GenerateTrace(prof.Scale(0.003), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "lun4.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := across.WriteTrace(f, 4, reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	loaded, err := across.ReadTrace(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(reqs) {
		t.Fatalf("file round trip lost requests: %d != %d", len(loaded), len(reqs))
	}

	// The loaded trace replays identically to the in-memory one (times are
	// microsecond-rounded by the CSV, so compare op counts, not latencies).
	resA, err := across.Run(across.AcrossFTL, cfg, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := across.Run(across.AcrossFTL, cfg, loaded, true)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Counters.FlashWrites() != resB.Counters.FlashWrites() {
		t.Errorf("flash writes differ after file round trip: %d vs %d",
			resA.Counters.FlashWrites(), resB.Counters.FlashWrites())
	}
	if resA.Counters.Erases != resB.Counters.Erases {
		t.Errorf("erases differ after file round trip: %d vs %d",
			resA.Counters.Erases, resB.Counters.Erases)
	}
}

// TestMultiPhaseReplayOnOneDevice ages one device and replays three trace
// segments back to back, as a long-running study would; state must carry
// over while metrics reset per phase. Each phase is checked against two
// forks: one of the aged checkpoint taken before phase 1, which later
// phases must not match, and one taken of the device just before the
// phase, which the phase's result must match exactly. A phase's erases
// must be what its own replay added to the device's lifetime wear.
func TestMultiPhaseReplayOnOneDevice(t *testing.T) {
	cfg := integConfig()
	r, err := across.NewRunner(across.AcrossFTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Age(across.DefaultAging()); err != nil {
		t.Fatal(err)
	}
	aged, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := across.Profile("lun5")
	full, err := across.GenerateTrace(prof.Scale(0.006), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	// Each phase is the requests arriving in one third of the trace's span,
	// rebased to start at zero.
	span := full[len(full)-1].Time
	third := span / 3
	segments := make([][]across.Request, 3)
	for _, r := range full {
		i := min(int(r.Time/third), 2)
		r.Time -= float64(i) * third
		segments[i] = append(segments[i], r)
	}
	// replay runs seg on a fork of cp.
	replay := func(cp *across.Checkpoint, seg []across.Request) *across.Result {
		t.Helper()
		f, err := cp.Fork()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Replay(seg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// lifetime is the device's total erase count, from its mean per block.
	lifetime := func(mean float64) int64 {
		return int64(math.Round(mean * float64(cfg.BlocksTotal())))
	}
	var total int64
	var prevMean float64
	for i, seg := range segments {
		before, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Replay(seg)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if res.Requests != int64(len(seg)) {
			t.Fatalf("segment %d lost requests", i)
		}
		total += res.Requests
		if res.Counters.Erases == 0 {
			t.Fatalf("segment %d erased nothing: the device is not aged enough to carry state", i)
		}
		if own := replay(before, seg); res.Counters != own.Counters || res.Wear != own.Wear {
			t.Errorf("segment %d: counters %+v wear %+v, but the phase alone gives %+v and %+v",
				i, res.Counters, res.Wear, own.Counters, own.Wear)
		}
		if grew := lifetime(res.Wear.Mean) - lifetime(prevMean); i > 0 && res.Counters.Erases != grew {
			t.Errorf("segment %d: %d erases counted, but lifetime erases grew by %d", i, res.Counters.Erases, grew)
		}
		prevMean = res.Wear.Mean
		fresh := replay(aged, seg)
		if carried := res.Counters != fresh.Counters || res.Wear != fresh.Wear; carried != (i > 0) {
			t.Errorf("segment %d: carried device differs from the aged checkpoint: %v, want %v (counters %+v vs %+v, wear %+v vs %+v)",
				i, carried, i > 0, res.Counters, fresh.Counters, res.Wear, fresh.Wear)
		}
	}
	if total != int64(len(full)) {
		t.Fatalf("segments covered %d of %d requests", total, len(full))
	}
}

// TestCrossSchemeDataConsistency replays one trace on all four schemes and
// checks the inter-scheme invariants that must hold regardless of tuning.
func TestCrossSchemeDataConsistency(t *testing.T) {
	cfg := integConfig()
	prof, _ := across.Profile("lun2")
	reqs, err := across.GenerateTrace(prof.Scale(0.004), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	kinds := append(across.Schemes(), across.DFTL)
	results := map[across.Scheme]*across.Result{}
	for _, k := range kinds {
		res, err := across.Run(k, cfg, reqs, true)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		results[k] = res
		// Universal sanity: every scheme serviced every request.
		if res.Requests != int64(len(reqs)) {
			t.Errorf("%s: %d of %d requests", k, res.Requests, len(reqs))
		}
		if res.Counters.FlashWrites() == 0 {
			t.Errorf("%s: no flash writes", k)
		}
	}
	// DFTL's data path equals the baseline's; only map traffic differs.
	ftlRes, dftlRes := results[across.BaselineFTL], results[across.DFTL]
	if dftlRes.Counters.DataWrites != ftlRes.Counters.DataWrites {
		t.Errorf("DFTL data writes %d != FTL %d (data paths must match)",
			dftlRes.Counters.DataWrites, ftlRes.Counters.DataWrites)
	}
	if dftlRes.Counters.MapWrites == 0 {
		t.Error("DFTL produced no map writes on an aged device")
	}
}

// TestHarnessEndToEndMarkdown runs two artifacts through the public API in
// markdown mode, as the EXPERIMENTS.md regeneration workflow does.
func TestHarnessEndToEndMarkdown(t *testing.T) {
	cfg := across.ExperimentConfigDefaults()
	cfg.SSD = integConfig()
	cfg.Scale = 0.002
	cfg.CollectionSize = 4
	cfg.Format = "markdown"
	var buf bytes.Buffer
	for _, id := range []string{"table2", "fig13"} {
		if err := across.RunExperiment(id, cfg, &buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "|---|") {
		t.Errorf("markdown table markers missing:\n%s", out)
	}
	if !strings.Contains(out, "**Table 2") {
		t.Error("markdown title missing")
	}
}

// TestDeterminismAcrossRuns: identical configuration and trace must yield
// bit-identical metrics (the whole simulator is seeded).
func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := integConfig()
	prof, _ := across.Profile("lun6")
	reqs, err := across.GenerateTrace(prof.Scale(0.003), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	a, err := across.Run(across.AcrossFTL, cfg, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := across.Run(across.AcrossFTL, cfg, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Errorf("counters differ across identical runs:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.TotalIOTime() != b.TotalIOTime() {
		t.Errorf("latency sums differ: %v vs %v", a.TotalIOTime(), b.TotalIOTime())
	}
	if *a.Across != *b.Across {
		t.Errorf("across census differs: %+v vs %+v", a.Across, b.Across)
	}
}
