package scenario

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"across/internal/trace"
	"across/internal/workload"
)

const testSectors = int64(1 << 20) // 512 MB logical space

func tinyProfile(seed int64) workload.Profile {
	p, err := workload.LunProfile("lun1")
	if err != nil {
		panic(err)
	}
	p = p.Scale(0.002)
	p.Seed = seed
	return p
}

func TestBuiltinScenariosGenerate(t *testing.T) {
	for _, name := range Names() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		sc = sc.Scale(0.002)
		st, err := sc.Generate(testSectors)
		if err != nil {
			t.Fatalf("%s: Generate: %v", name, err)
		}
		if len(st.Requests) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		if st.Scenario != name {
			t.Fatalf("%s: stream labelled %q", name, st.Scenario)
		}
		// Arrival-ordered.
		for i := 1; i < len(st.Requests); i++ {
			if st.Requests[i].Time < st.Requests[i-1].Time {
				t.Fatalf("%s: requests out of order at %d", name, i)
			}
		}
		// Every request is valid for the device.
		for i, r := range st.Requests {
			if err := r.Validate(testSectors); err != nil {
				t.Fatalf("%s: request %d invalid: %v", name, i, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Builtin(name)
		sc = sc.Scale(0.002)
		a, err := sc.Generate(testSectors)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Generate(testSectors)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := EncodeStream(a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := EncodeStream(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s: double generation not byte-identical", name)
		}
	}
}

func TestCohortsStayInPartitions(t *testing.T) {
	sc, _ := Builtin("mixed")
	sc = sc.Scale(0.002)
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cohorts) != 3 {
		t.Fatalf("want 3 cohorts, got %d", len(st.Cohorts))
	}
	// Rebuild each cohort alone in its partition and verify its requests
	// fall inside the recorded [StartSector, StartSector+Sectors) span.
	for ci, info := range st.Cohorts {
		if info.Requests == 0 {
			t.Fatalf("cohort %d (%s) contributed no requests", ci, info.Name)
		}
		if info.StartSector%workload.RefSPP != 0 || info.Sectors%workload.RefSPP != 0 {
			t.Fatalf("cohort %s partition not page-aligned: start %d size %d",
				info.Name, info.StartSector, info.Sectors)
		}
	}
	// The merged stream must respect partitions: re-derive each request's
	// owner by offset and check containment.
	for i, r := range st.Requests {
		owned := false
		for _, info := range st.Cohorts {
			if r.Offset >= info.StartSector && r.Offset+int64(r.Count) <= info.StartSector+info.Sectors {
				owned = true
				break
			}
		}
		if !owned {
			t.Fatalf("request %d (offset %d count %d) outside every partition", i, r.Offset, r.Count)
		}
	}
}

func TestSpikePatternModulatesRate(t *testing.T) {
	// A spike cohort must cluster arrivals: the max requests per second
	// should far exceed the min (excluding empty windows at the tails).
	sc := Scenario{Name: "spiketest", Cohorts: []Cohort{{
		Name:    "t",
		Profile: tinyProfile(7),
		Pattern: Pattern{Kind: PatternSpike, PeriodMs: 2000, Peak: 20, Base: 0.2, DutyFrac: 0.1},
	}}}
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, r := range st.Requests {
		counts[int64(r.Time)/1000]++
	}
	max, min := 0, math.MaxInt
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 4*min {
		t.Fatalf("spike pattern too flat: max %d/s vs min %d/s over %d windows", max, min, len(counts))
	}
}

func TestRampPatternAccelerates(t *testing.T) {
	sc := Scenario{Name: "ramptest", Cohorts: []Cohort{{
		Name:    "t",
		Profile: tinyProfile(9),
		Pattern: Pattern{Kind: PatternRamp, PeriodMs: 3000, Peak: 5, Base: 0.2},
	}}}
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	reqs := st.Requests
	// The second half of the request count should occupy far less time
	// than the first half once the ramp has climbed.
	mid := reqs[len(reqs)/2].Time
	last := reqs[len(reqs)-1].Time
	if last-mid >= mid {
		t.Fatalf("ramp did not accelerate: first half %0.f ms, second half %0.f ms", mid, last-mid)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	base := tinyProfile(1)
	cases := []struct {
		name string
		sc   Scenario
		want error
	}{
		{"no cohorts", Scenario{Name: "x"}, ErrNoCohorts},
		{"zero requests", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: workload.Profile{Name: "a"}},
		}}, ErrZeroRequests},
		{"zero-duration spike", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, Pattern: Pattern{Kind: PatternSpike, PeriodMs: 0}},
		}}, ErrZeroDuration},
		{"zero-duration ramp", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, Pattern: Pattern{Kind: PatternRamp, PeriodMs: -5}},
		}}, ErrZeroDuration},
		{"degenerate spike duty", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, Pattern: Pattern{Kind: PatternSpike, PeriodMs: 100, DutyFrac: 1.5}},
		}}, ErrZeroDuration},
		{"overlapping partitions", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, StartFrac: 0, SizeFrac: 0.6},
			{Name: "b", Profile: base, StartFrac: 0.5, SizeFrac: 0.5},
		}}, ErrPartitionOverlap},
		{"partition past device end", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, StartFrac: 0.8, SizeFrac: 0.4},
		}}, ErrPartition},
		{"partition too small", Scenario{Name: "x", Cohorts: []Cohort{
			{Name: "a", Profile: base, StartFrac: 0, SizeFrac: 1e-6},
		}}, ErrPartition},
	}
	for _, tc := range cases {
		err := tc.sc.Validate(testSectors)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := tc.sc.Generate(testSectors); err == nil {
			t.Errorf("%s: Generate accepted an invalid scenario", tc.name)
		}
	}
}

func TestSoleCohortDefaultsToWholeDevice(t *testing.T) {
	sc := Scenario{Name: "x", Cohorts: []Cohort{{Name: "a", Profile: tinyProfile(3)}}}
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cohorts[0].StartSector != 0 || st.Cohorts[0].Sectors != testSectors {
		t.Fatalf("sole cohort partition = [%d, +%d), want whole device",
			st.Cohorts[0].StartSector, st.Cohorts[0].Sectors)
	}
}

func TestScaleAndSeedOffset(t *testing.T) {
	sc, _ := Builtin("mixed")
	orig := sc.Cohorts[0].Profile.Requests
	scaled := sc.Scale(0.5)
	if got := scaled.Cohorts[0].Profile.Requests; got != orig/2 {
		t.Fatalf("Scale(0.5): %d -> %d", orig, got)
	}
	if sc.Cohorts[0].Profile.Requests != orig {
		t.Fatal("Scale mutated the receiver")
	}
	shifted := sc.WithSeedOffset(1000)
	if shifted.Cohorts[0].Profile.Seed != sc.Cohorts[0].Profile.Seed+1000 {
		t.Fatal("WithSeedOffset did not shift the seed")
	}
	if sc.Cohorts[0].Profile.Seed == shifted.Cohorts[0].Profile.Seed {
		t.Fatal("WithSeedOffset mutated the receiver")
	}
	// Degenerate scale factors clamp rather than corrupt.
	for _, f := range []float64{math.NaN(), math.Inf(-1), -1, 0} {
		s := sc.Scale(f)
		for _, c := range s.Cohorts {
			if c.Profile.Requests < 1 {
				t.Fatalf("Scale(%v) produced %d requests", f, c.Profile.Requests)
			}
		}
	}
}

func TestTraceCohortWrapsIntoPartition(t *testing.T) {
	// Synthetic "recorded" trace with offsets beyond the partition.
	var reqs []trace.Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, trace.Request{
			Time:   float64(i),
			Op:     trace.Op(i % 2),
			Offset: int64(i) * 1003, // deliberately unaligned spread
			Count:  int32(i%24) + 1,
		})
	}
	sc := Scenario{Name: "wrap", Cohorts: []Cohort{
		{Name: "rec", Trace: reqs, TraceName: "rec", StartFrac: 0.25, SizeFrac: 0.25},
		{Name: "syn", Profile: tinyProfile(11), StartFrac: 0.5, SizeFrac: 0.5},
	}}
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	start, size := st.Cohorts[0].StartSector, st.Cohorts[0].Sectors
	var got []trace.Request
	for _, r := range st.Requests {
		if r.Offset < start+size && r.Offset+int64(r.Count) > start {
			// Inside the trace partition: must be fully contained.
			if r.Offset < start || r.Offset+int64(r.Count) > start+size {
				t.Fatalf("trace request [%d, +%d) leaks out of partition [%d, +%d)",
					r.Offset, r.Count, start, size)
			}
			got = append(got, r)
		}
	}
	if len(got) != len(reqs) {
		t.Fatalf("trace partition holds %d requests, want %d", len(got), len(reqs))
	}
	if size%workload.RefSPP != 0 {
		t.Fatalf("partition size %d not a RefSPP multiple", size)
	}
	// Alignment classes survive the retiming: both the modulo wrap and the
	// spill pull-back move offsets by RefSPP multiples (no request here is
	// big enough to hit the nearly-fills-the-partition fallback), so each
	// request keeps its offset modulo the reference page. Trace arrival
	// times are strictly increasing, so `got` matches `reqs` by index.
	for i, r := range got {
		if r.Offset%workload.RefSPP != reqs[i].Offset%workload.RefSPP {
			t.Fatalf("request %d: retimed offset %d lost the alignment of recorded offset %d",
				i, r.Offset, reqs[i].Offset)
		}
	}
}

// TestRetimeTracePullbackPreservesAlignment drives the spill pull-back
// directly: requests wrapped near the partition end must stay contained and
// keep offset mod RefSPP, except when they nearly fill the partition, where
// the documented fallback lands them flush against its end.
func TestRetimeTracePullbackPreservesAlignment(t *testing.T) {
	const size = 64 * workload.RefSPP
	c := &Cohort{Name: "rec", TraceName: "rec", Trace: []trace.Request{
		// Spills a few sectors past the end: pulled back one page.
		{Time: 0, Offset: size - 3, Count: 10},
		// Unaligned offset spilling by more than a page.
		{Time: 1, Offset: size - workload.RefSPP - 5, Count: 3 * workload.RefSPP},
		// Nearly fills the partition: no aligned slot exists.
		{Time: 2, Offset: 7, Count: size - 4},
	}}
	out := retimeTrace(c, 0, size)
	for i, r := range out {
		if r.Offset < 0 || r.Offset+int64(r.Count) > size {
			t.Errorf("request %d: [%d, +%d) leaks out of [0, %d)", i, r.Offset, r.Count, size)
		}
	}
	for i, r := range out[:2] {
		if r.Offset%workload.RefSPP != c.Trace[i].Offset%workload.RefSPP {
			t.Errorf("request %d: offset %d lost the alignment of recorded offset %d",
				i, r.Offset, c.Trace[i].Offset)
		}
	}
	if last := out[2]; last.Offset != size-int64(last.Count) {
		t.Errorf("nearly-full request placed at %d, want the exact end fit %d",
			last.Offset, size-int64(last.Count))
	}
}

func TestFromTraceScale(t *testing.T) {
	var reqs []trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, trace.Request{Time: float64(i), Offset: int64(i) * 16, Count: 8})
	}
	sc := FromTrace("rec", reqs)
	half := sc.Scale(0.5)
	if got := len(half.Cohorts[0].Trace); got != 50 {
		t.Fatalf("trace Scale(0.5): %d requests, want 50", got)
	}
	if len(sc.Cohorts[0].Trace) != 100 {
		t.Fatal("Scale mutated the source scenario")
	}
	for _, f := range []float64{math.NaN(), -2, 0} {
		if got := len(sc.Scale(f).Cohorts[0].Trace); got != 1 {
			t.Fatalf("trace Scale(%v): %d requests, want 1", f, got)
		}
	}
	if got := len(sc.Scale(math.Inf(1)).Cohorts[0].Trace); got != 100 {
		t.Fatalf("trace Scale(+Inf): %d requests, want all 100", got)
	}
}

func TestMergeTieBreakDeterministic(t *testing.T) {
	// Two recorded cohorts with identical timestamps: ties must break by
	// cohort order, every time.
	mk := func() []trace.Request {
		var rs []trace.Request
		for i := 0; i < 10; i++ {
			rs = append(rs, trace.Request{Time: float64(i), Offset: 0, Count: 8})
		}
		return rs
	}
	sc := Scenario{Name: "tie", Cohorts: []Cohort{
		{Name: "a", Trace: mk(), TraceName: "a", StartFrac: 0, SizeFrac: 0.5},
		{Name: "b", Trace: mk(), TraceName: "b", StartFrac: 0.5, SizeFrac: 0.5},
	}}
	st, err := sc.Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Requests) != 20 {
		t.Fatalf("%d requests, want 20", len(st.Requests))
	}
	b := st.Cohorts[1].StartSector
	for i := 0; i < 20; i += 2 {
		if st.Requests[i].Offset != 0 || st.Requests[i+1].Offset != b {
			t.Fatalf("tie at %d broke against cohort order", i)
		}
	}
}

// TestScenarioGenerateAllocations: the cohorts are merged as they are
// drawn, so generating a stream allocates its Requests slice, exactly as
// long as the stream, and the generators' own state — nothing per request,
// and no per-cohort copy of the stream.
func TestScenarioGenerateAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation sizes are meaningless under the race detector")
	}
	sc, err := Builtin("mixed")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.Scale(0.08)
	var st *Stream
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for range runs {
		if st, err = sc.Generate(1 << 24); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := len(st.Requests)
	if n != cap(st.Requests) {
		t.Errorf("Requests holds %d requests in a slice of %d", n, cap(st.Requests))
	}
	slice := n * int(unsafe.Sizeof(st.Requests[0]))
	if perRun, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(slice+1<<20); perRun > limit {
		t.Errorf("generating %d requests (a %d-byte slice) allocated %d bytes, want at most %d (one exact slice + 1 MiB)", n, slice, perRun, limit)
	}
}
