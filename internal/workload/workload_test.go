package workload

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"across/internal/ssdconf"
	"across/internal/trace"
)

const testLogical = int64(1 << 22) // 2 GiB of sectors

func TestLunProfilesMatchTable2(t *testing.T) {
	ps := LunProfiles()
	if len(ps) != 6 {
		t.Fatalf("profiles = %d, want 6", len(ps))
	}
	// Spot-check against Table 2 of the paper.
	if ps[0].Requests != 749806 || ps[0].WriteRatio != 0.615 || ps[0].AvgWriteKB != 8.9 || ps[0].AcrossRatio != 0.247 {
		t.Errorf("lun1 = %+v, mismatch with Table 2", ps[0])
	}
	if ps[5].Requests != 633234 || ps[5].AcrossRatio != 0.275 {
		t.Errorf("lun6 = %+v, mismatch with Table 2", ps[5])
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
	if _, err := LunProfile("lun3"); err != nil {
		t.Error(err)
	}
	if _, err := LunProfile("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := LunProfiles()[0]
	bad := []func(*Profile){
		func(p *Profile) { p.Requests = 0 },
		func(p *Profile) { p.WriteRatio = 1.5 },
		func(p *Profile) { p.AcrossRatio = 0.95 },
		func(p *Profile) { p.AvgWriteKB = 0 },
		func(p *Profile) { p.FootprintFrac = 0 },
		func(p *Profile) { p.HotFrac = 2 },
		func(p *Profile) { p.HotProb = -0.1 },
		func(p *Profile) { p.MeanIOPS = 0 },
	}
	for i, mut := range bad {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
}

func TestGeneratedStatisticsHitTable2Targets(t *testing.T) {
	for _, p := range LunProfiles() {
		p := p.Scale(0.1) // 60-90k requests: plenty for tight statistics
		reqs, err := Generate(p, testLogical)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := trace.Measure(reqs, RefSPP)
		if got := st.WriteRatio(); got < p.WriteRatio-0.02 || got > p.WriteRatio+0.02 {
			t.Errorf("%s: WriteRatio = %.3f, want %.3f +/- 0.02", p.Name, got, p.WriteRatio)
		}
		if got := st.AcrossRatio(); got < p.AcrossRatio-0.02 || got > p.AcrossRatio+0.02 {
			t.Errorf("%s: AcrossRatio = %.3f, want %.3f +/- 0.02", p.Name, got, p.AcrossRatio)
		}
		if got := st.AvgWriteKB(); got < p.AvgWriteKB*0.85 || got > p.AvgWriteKB*1.15 {
			t.Errorf("%s: AvgWriteKB = %.2f, want %.1f +/- 15%%", p.Name, got, p.AvgWriteKB)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := LunProfiles()[2].Scale(0.01)
	a, err := Generate(p, testLogical)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, testLogical)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratedRequestsAreValidAndInFootprint(t *testing.T) {
	p := LunProfiles()[0].Scale(0.02)
	g, err := NewGenerator(p, testLogical)
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.Generate()
	if len(reqs) != p.Requests {
		t.Fatalf("generated %d requests, want %d", len(reqs), p.Requests)
	}
	prev := -1.0
	for i, r := range reqs {
		if err := r.Validate(testLogical); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if r.End() > g.Footprint() {
			t.Fatalf("request %d [%d,%d) beyond footprint %d", i, r.Offset, r.End(), g.Footprint())
		}
		if r.Time < prev {
			t.Fatalf("request %d time %v before predecessor %v", i, r.Time, prev)
		}
		prev = r.Time
	}
}

func TestHotColdLocality(t *testing.T) {
	p := LunProfiles()[0].Scale(0.05)
	g, err := NewGenerator(p, testLogical)
	if err != nil {
		t.Fatal(err)
	}
	hotEnd := g.hotEnd
	var hot, total int
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		total++
		if r.Offset < hotEnd {
			hot++
		}
	}
	frac := float64(hot) / float64(total)
	if frac < p.HotProb-0.05 || frac > p.HotProb+0.05 {
		t.Fatalf("hot fraction = %.3f, want ~%.2f", frac, p.HotProb)
	}
}

func TestCollectionSpreadsAcrossRatios(t *testing.T) {
	col := Collection(61)
	if len(col) != 61 {
		t.Fatalf("collection size = %d, want 61", len(col))
	}
	lo, hi := 1.0, 0.0
	seen := map[string]bool{}
	for _, p := range col {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate name %s", p.Name)
		}
		seen[p.Name] = true
		if p.AcrossRatio < lo {
			lo = p.AcrossRatio
		}
		if p.AcrossRatio > hi {
			hi = p.AcrossRatio
		}
	}
	if lo > 0.08 || hi < 0.30 {
		t.Fatalf("across ratios [%.2f, %.2f] lack the Fig 2 spread", lo, hi)
	}
}

func TestScaleClampsToOneRequest(t *testing.T) {
	p := LunProfiles()[0].Scale(0)
	if p.Requests != 1 {
		t.Fatalf("Scale(0).Requests = %d, want 1", p.Requests)
	}
}

func TestScaleDegenerateFactors(t *testing.T) {
	base := LunProfiles()[0]
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(-1), 1e-12} {
		if got := base.Scale(f).Requests; got != 1 {
			t.Errorf("Scale(%v).Requests = %d, want 1", f, got)
		}
	}
	// Overflow-sized factors must saturate, not wrap through the
	// implementation-defined int(float64) conversion.
	for _, f := range []float64{math.Inf(1), 1e300} {
		if got := base.Scale(f).Requests; got != math.MaxInt {
			t.Errorf("Scale(%v).Requests = %d, want MaxInt", f, got)
		}
	}
	if base.Scale(2).Requests != 2*base.Requests {
		t.Errorf("Scale(2).Requests = %d, want %d", base.Scale(2).Requests, 2*base.Requests)
	}
}

func TestGeneratorRejectsTinyDevice(t *testing.T) {
	if _, err := NewGenerator(LunProfiles()[0], 10); err == nil {
		t.Fatal("tiny device accepted")
	}
}

func TestFig13MonotoneAcrossRatioOnGeneratedTrace(t *testing.T) {
	p := LunProfiles()[5].Scale(0.05)
	reqs, err := Generate(p, testLogical)
	if err != nil {
		t.Fatal(err)
	}
	r4 := trace.Measure(reqs, 8).AcrossRatio()
	r8 := trace.Measure(reqs, 16).AcrossRatio()
	r16 := trace.Measure(reqs, 32).AcrossRatio()
	if !(r4 > r8 && r8 > r16) {
		t.Fatalf("across ratios not decreasing with page size: 4K=%.3f 8K=%.3f 16K=%.3f", r4, r8, r16)
	}
}

func TestGeneratorWorksOnExperimentGeometry(t *testing.T) {
	c := ssdconf.Experiment()
	p := LunProfiles()[0].Scale(0.001)
	reqs, err := Generate(p, c.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := r.Validate(c.LogicalSectors()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateAllocations locks the generator's allocation shape: beyond
// what NewGenerator allocates (the object population and the random source),
// Generate allocates one exact slice of requests and nothing per request.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// A collection would count the runtime's own allocations as f's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := LunProfiles()[0]
	p.Requests = 100_000
	// measure returns f's allocations and bytes per run. AllocsPerRun runs
	// f once to warm up, then runs times.
	measure := func(f func()) (float64, uint64) {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	popAllocs, popBytes := measure(func() {
		if _, err := NewGenerator(p, testLogical); err != nil {
			t.Fatal(err)
		}
	})
	genAllocs, genBytes := measure(func() {
		if reqs, err := Generate(p, testLogical); err != nil || len(reqs) != p.Requests {
			t.Fatalf("generated %d of %d requests: %v", len(reqs), p.Requests, err)
		}
	})
	if genAllocs != popAllocs+1 {
		t.Errorf("Generate made %v allocations, want NewGenerator's %v plus one", genAllocs, popAllocs)
	}
	// A large allocation is rounded up to whole 8 KiB pages.
	want := uint64(p.Requests) * uint64(unsafe.Sizeof(trace.Request{}))
	if got := genBytes - popBytes; got < want || got >= want+8<<10 {
		t.Errorf("Generate allocated %d bytes beyond the population, want one %d-byte slice", got, want)
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts are the detector's as much as the code's.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
