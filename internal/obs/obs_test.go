package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// driveTracer emits one event of every kind.
func driveTracer(t Tracer) {
	t.RequestStart(0, true, 1, 128, 16, 2, 0.5)
	t.FlashOp(FlashRead, 1, 0, 42, 0.5, 0.54)
	t.FlashOp(FlashProgram, 1, 3, 99, 0.6, 1.26)
	t.GCVictim(2, 7, 3, 1.3)
	t.GCSpan(2, 1, 3, 1.3, 4.1)
	t.FlashOp(FlashErase, 3, 1, 512, 1.3, 4.1)
	t.AcrossEvent(AcrossMergeProfitable, 128, 32, 1.5)
	t.CacheAccess(CacheAMT, true, 1.6)
	t.CacheAccess(CacheNode, false, 1.7)
	t.RequestEnd(0, true, 2.2)
}

// chromeDoc is the top-level trace_event document shape.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Cat  string          `json:"cat"`
		PID  int             `json:"pid"`
		TID  int             `json:"tid"`
		TS   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		ID   json.RawMessage `json:"id"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTracerProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	const chips = 4
	trc := NewChromeTracer(&buf, chips)
	driveTracer(trc)
	if err := trc.Flush(); err != nil {
		t.Fatal(err)
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}

	var threadNames []int
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threadNames = append(threadNames, ev.TID)
		}
		if ev.Ph == "X" && ev.Cat != "gc" && ev.TID >= chips {
			t.Errorf("flash op on tid %d, beyond the %d chip tracks", ev.TID, chips)
		}
	}
	// One track per chip plus the GC and across tracks.
	if len(threadNames) != chips+2 {
		t.Errorf("%d named threads, want %d (chips + GC + across)", len(threadNames), chips+2)
	}
	if counts["b"] != 1 || counts["e"] != 1 {
		t.Errorf("async request span b/e = %d/%d, want 1/1", counts["b"], counts["e"])
	}
	if counts["X"] != 4 { // read, program, erase, gc span
		t.Errorf("%d complete events, want 4", counts["X"])
	}
	if counts["i"] != 2 { // gc victim + across decision; cache accesses suppressed
		t.Errorf("%d instant events, want 2 (cache accesses must be suppressed)", counts["i"])
	}

	// Timestamps are microseconds: the 0.5 ms request start lands at ts=500.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "b" && ev.TS != 500 {
			t.Errorf("request start ts %v µs, want 500 (0.5 ms)", ev.TS)
		}
	}
}

func TestJSONLTracerLinesParse(t *testing.T) {
	var buf bytes.Buffer
	trc := NewJSONLTracer(&buf)
	driveTracer(trc)
	if err := trc.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines for 10 events", len(lines))
	}
	kinds := map[string]int{}
	for _, ln := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad line %q: %v", ln, err)
		}
		kinds[ev.Ev]++
	}
	want := map[string]int{
		"req_start": 1, "req_end": 1, "flash": 3, "gc_victim": 1,
		"gc": 1, "across": 1, "cache": 2,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%d %q events, want %d", kinds[k], k, n)
		}
	}
}

func TestOpenTraceSelectsFormatByExtension(t *testing.T) {
	dir := t.TempDir()

	jsonlPath := filepath.Join(dir, "run.jsonl")
	trc, closer, err := OpenTrace(jsonlPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trc.(*JSONLTracer); !ok {
		t.Errorf(".jsonl path opened a %T, want *JSONLTracer", trc)
	}
	driveTracer(trc)
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("closer did not flush the JSONL stream")
	}

	chromePath := filepath.Join(dir, "run.trace.json")
	trc, closer, err = OpenTrace(chromePath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trc.(*ChromeTracer); !ok {
		t.Errorf("non-jsonl path opened a %T, want *ChromeTracer", trc)
	}
	driveTracer(trc)
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("closer did not finalise the Chrome document: %v", err)
	}
}

func TestIsNop(t *testing.T) {
	if !IsNop(nil) || !IsNop(NopTracer()) || !IsNop(Nop{}) {
		t.Error("nil and Nop must both read as no-op")
	}
	if IsNop(NewJSONLTracer(&bytes.Buffer{})) {
		t.Error("a real tracer read as no-op")
	}
}

// fillConst returns a fill callback reporting a fixed busy-rate per chip, so
// interval busy fractions are predictable.
func fillConst(busyRate []float64) func(*Sample) {
	return func(sm *Sample) {
		sm.ChipBusyMs = make([]float64, len(busyRate))
		for i, r := range busyRate {
			sm.ChipBusyMs[i] = r * sm.TimeMs
		}
	}
}

func TestSamplerRejectsBadInterval(t *testing.T) {
	if _, err := NewSampler(0); err == nil {
		t.Error("interval 0 accepted")
	}
	if _, err := NewSampler(-5); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestSamplerGridAndWindows(t *testing.T) {
	s, err := NewSampler(10)
	if err != nil {
		t.Fatal(err)
	}
	fill := fillConst([]float64{0.5, 1.0})

	s.Tick(100, fill) // anchors the grid at 100; no sample
	if len(s.Samples()) != 0 {
		t.Fatalf("anchoring tick emitted %d samples", len(s.Samples()))
	}
	s.Note(false, 2)
	s.Note(false, 4)
	s.Note(true, 10)
	s.Tick(105, fill) // within the window
	if len(s.Samples()) != 0 {
		t.Fatal("mid-window tick emitted a sample")
	}
	s.Tick(112, fill) // crosses the 110 boundary
	if len(s.Samples()) != 1 {
		t.Fatalf("boundary tick emitted %d samples, want 1", len(s.Samples()))
	}
	sm := s.Samples()[0]
	if sm.TimeMs != 112 {
		t.Errorf("sample stamped %v, want the crossing event time 112", sm.TimeMs)
	}
	if sm.Requests != 3 || sm.ReadMeanMs != 3 || sm.WriteMeanMs != 10 {
		t.Errorf("window stats reqs=%d read=%v write=%v, want 3/3/10",
			sm.Requests, sm.ReadMeanMs, sm.WriteMeanMs)
	}
	// Busy fraction over (100,112]: chip 0 at rate 0.5 → 0.5; chip 1 clamped
	// from rate 1.0... but prevBusy at anchor was never recorded, so the
	// first window measures from zero busy; both clamp within [0,1].
	for i, f := range sm.ChipBusyFrac {
		if f < 0 || f > 1 {
			t.Errorf("chip %d busy fraction %v outside [0,1]", i, f)
		}
	}

	// A long quiet gap yields ONE coalesced sample at the ending event.
	s.Note(true, 1)
	s.Tick(191, fill)
	if n := len(s.Samples()); n != 2 {
		t.Fatalf("gap tick emitted %d cumulative samples, want 2 (coalesced)", n)
	}
	if got := s.Samples()[1]; got.TimeMs != 191 || got.Requests != 1 {
		t.Errorf("coalesced sample t=%v reqs=%d, want 191/1", got.TimeMs, got.Requests)
	}

	// Finish closes the series even off-grid; window counters were reset.
	s.Finish(195, fill)
	if n := len(s.Samples()); n != 3 {
		t.Fatalf("finish gave %d cumulative samples, want 3", n)
	}
	if got := s.Samples()[2]; got.TimeMs != 195 || got.Requests != 0 {
		t.Errorf("closing sample t=%v reqs=%d, want 195/0", got.TimeMs, got.Requests)
	}
	// Finish at a non-advancing time is a no-op.
	s.Finish(195, fill)
	if n := len(s.Samples()); n != 3 {
		t.Errorf("repeated finish emitted again (%d samples)", n)
	}
}

func TestSamplerBusyFractionDelta(t *testing.T) {
	s, err := NewSampler(10)
	if err != nil {
		t.Fatal(err)
	}
	fill := fillConst([]float64{0.25})
	s.Tick(0, fill)
	s.Tick(10, fill)
	s.Tick(20, fill)
	samples := s.Samples()
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2", len(samples))
	}
	// Second window: busy went 2.5 → 5.0 ms over a 10 ms window → 0.25.
	if f := samples[1].ChipBusyFrac[0]; math.Abs(f-0.25) > 1e-9 {
		t.Errorf("steady-state busy fraction %v, want 0.25", f)
	}
}

// TestWriteNDJSONRoundTrip: the one formatter writes one JSON object per
// line, and each line decodes back to the sample it was written from.
func TestWriteNDJSONRoundTrip(t *testing.T) {
	in := []Sample{
		{TimeMs: 5, CumRequests: 3, WAF: 1.5},
		{TimeMs: 10, Requests: 2, ChipBusyFrac: []float64{0.25, 1}, ChipBusyMs: []float64{2.5, 10}, Custom: map[string]float64{"x": -1}},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(in) {
		t.Fatalf("%d lines for %d samples:\n%s", len(lines), len(in), buf.Bytes())
	}
	for i, line := range lines {
		var got Sample
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, in[i]) {
			t.Errorf("line %d round trips to %+v, want %+v", i+1, got, in[i])
		}
	}
}
