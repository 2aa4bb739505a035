package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/runspec"
)

// msrFixture is the checked-in MSR Cambridge sample, relative to this
// package directory.
const msrFixture = "../trace/testdata/msr_sample.csv"

// TestScenarioKeyMatrix pins the content-key rules for scenario jobs: the
// scenario block is a simulated-outcome knob (distinct keys per scenario,
// scale and seed), scheduling knobs stay excluded, and both the non-scenario
// and fleet key structures are untouched by the scenario machinery.
func TestScenarioKeyMatrix(t *testing.T) {
	mk := func(mut func(*runspec.Spec)) string {
		sp := runspec.Spec{Type: "replay", Scheme: "Across-FTL", Scale: 0.001,
			Scenario: &runspec.ScenarioSpec{Name: "burst"}}
		if mut != nil {
			mut(&sp)
		}
		sp.Normalise()
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		key, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	base := mk(nil)
	if mk(nil) != base {
		t.Error("identical scenario specs produced different keys")
	}
	for name, mut := range map[string]func(*runspec.Spec){
		"scenario": func(sp *runspec.Spec) { sp.Scenario.Name = "daynight" },
		"scale":    func(sp *runspec.Spec) { sp.Scale = 0.002 },
		"seed":     func(sp *runspec.Spec) { sp.Seed = 7 },
		"qd":       func(sp *runspec.Spec) { sp.QD = 8 },
		"age":      func(sp *runspec.Spec) { sp.Age = true },
		"fleet":    func(sp *runspec.Spec) { sp.Fleet = &runspec.FleetSpec{Devices: 2, Layout: "raid0"} },
	} {
		if mk(mut) == base {
			t.Errorf("%s change did not change the key", name)
		}
	}
	for name, mut := range map[string]func(*runspec.Spec){
		"priority": func(sp *runspec.Spec) { sp.Priority = 3 },
		"timeout":  func(sp *runspec.Spec) { sp.TimeoutMs = 1000 },
	} {
		if mk(mut) != base {
			t.Errorf("scheduling knob %s leaked into the key", name)
		}
	}
	// A non-scenario spec must hash exactly as before the scenario layer
	// existed (the same guarantee the fleet layer gives).
	nf := runspec.Spec{Type: "replay", Scheme: "Across-FTL", Profile: "lun1", Scale: 0.001}
	nf.Normalise()
	nfKey, err := nf.Key()
	if err != nil {
		t.Fatal(err)
	}
	if nfKey != legacyReplayKey(t, &nf) {
		t.Error("non-scenario key structure drifted — cached results would be orphaned")
	}
}

// TestScenarioTraceKeyTracksFileContent submits the same trace file under two
// paths and a mutated copy under one: content-equal files share a key,
// changed content changes it.
func TestScenarioTraceKeyTracksFileContent(t *testing.T) {
	data, err := os.ReadFile(msrFixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(a, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}
	keyAt := func(path string, scale float64) string {
		sp := runspec.Spec{Type: "replay", Scheme: "FTL", Scale: scale,
			Scenario: &runspec.ScenarioSpec{TracePath: path}}
		sp.Normalise()
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		k, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	key := func(path string) string { return keyAt(path, 1) }
	if key(a) != key(b) {
		t.Error("identical trace bytes under different paths fragmented the key")
	}
	// Scale truncates a trace cohort at generation time, and the requests
	// themselves are excluded from the scenario's JSON — the resolved
	// counts must keep scaled variants of the same file apart.
	if keyAt(a, 0.5) == keyAt(a, 1) {
		t.Error("trace specs differing only in scale collided on one key")
	}
	// Append one more request: the key must change.
	line := "128166372003061629,src1,0,Write,1303441408,8192,1322\n"
	if err := os.WriteFile(b, append(data, line...), 0o644); err != nil {
		t.Fatal(err)
	}
	if key(a) == key(b) {
		t.Error("changed trace content kept the old key — stale results would be served")
	}
}

// TestScenarioSpecValidation covers submit-time rejection of bad scenario
// blocks.
func TestScenarioSpecValidation(t *testing.T) {
	for name, mut := range map[string]func(*runspec.Spec){
		"unknown-builtin":  func(sp *runspec.Spec) { sp.Scenario.Name = "nope" },
		"missing-name":     func(sp *runspec.Spec) { sp.Scenario.Name = "" },
		"missing-file":     func(sp *runspec.Spec) { sp.Scenario = &runspec.ScenarioSpec{TracePath: "/does/not/exist.csv"} },
		"profile-conflict": func(sp *runspec.Spec) { sp.Profile = "lun1" },
	} {
		sp := runspec.Spec{Type: "replay", Scheme: "FTL", Scale: 0.001,
			Scenario: &runspec.ScenarioSpec{Name: "burst"}}
		mut(&sp)
		sp.Normalise()
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validate accepted the spec", name)
		}
	}
}

// TestScenarioJobEndToEnd submits a scenario replay over HTTP, polls it to
// completion, checks the stored digest, and confirms dedup on resubmit.
func TestScenarioJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	body := `{"type":"replay","scheme":"Across-FTL","scale":0.002,` +
		`"scenario":{"name":"mixed"}}`
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := pollState(t, ts.URL, st.ID, 60*time.Second)
	if jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	code, doc := fetchResult(t, ts.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d, want 200", code)
	}
	var res ReplayResult
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Writes == 0 {
		t.Fatalf("digest looks wrong: %+v", res)
	}

	code, st2 := postJSON(t, ts.URL+"/api/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (deduped)", code)
	}
	if st2.Key != st.Key {
		t.Fatalf("resubmit key %s != %s", st2.Key, st.Key)
	}
}

// TestScenarioJobReusesAgingCheckpoint runs a profile job and then a
// scenario job with the same scheme/config: the scenario job must fork from
// the stored checkpoint instead of aging again (AgingKey is
// workload-independent, and a scenario is just another workload).
func TestScenarioJobReusesAgingCheckpoint(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	profileBody := `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.001,"age":true}`
	_, st := postJSON(t, ts.URL+"/api/v1/jobs", profileBody)
	if f := pollState(t, ts.URL, st.ID, 60*time.Second); jobs.State(f.State) != jobs.StateSucceeded {
		t.Fatalf("profile job finished %s (error %q)", f.State, f.Error)
	}
	if got := s.counterValue("snapshot_ages"); got != 1 {
		t.Fatalf("snapshot_ages = %d after profile job, want 1", got)
	}

	scenarioBody := `{"type":"replay","scheme":"FTL","scale":0.001,"age":true,` +
		`"scenario":{"name":"burst"}}`
	_, st2 := postJSON(t, ts.URL+"/api/v1/jobs", scenarioBody)
	if f := pollState(t, ts.URL, st2.ID, 60*time.Second); jobs.State(f.State) != jobs.StateSucceeded {
		t.Fatalf("scenario job finished %s (error %q)", f.State, f.Error)
	}
	if got := s.counterValue("snapshot_ages"); got != 1 {
		t.Errorf("snapshot_ages = %d after scenario job, want 1 (should fork, not re-age)", got)
	}
	if got := s.counterValue("snapshot_restores"); got < 1 {
		t.Errorf("snapshot_restores = %d, want >= 1", got)
	}
}

// TestScenarioTraceJobEndToEnd drives the MSR Cambridge real-trace path
// through the daemon: the checked-in fixture wrapped as a trace cohort.
func TestScenarioTraceJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	abs, err := filepath.Abs(msrFixture)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"type":"replay","scheme":"Across-FTL","scale":1,` +
		`"scenario":{"trace_path":"` + abs + `"}}`
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := pollState(t, ts.URL, st.ID, 60*time.Second)
	if jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	var res ReplayResult
	_, doc := fetchResult(t, ts.URL, st.ID)
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatalf("trace job replayed no requests: %+v", res)
	}
}

// A submission reads its trace_path once — validate and Key share the read,
// the parse and the SHA-256 — and the job reads it once more for itself; a
// file over the bound is refused with a 400 before any of it is read.
func TestScenarioTracePathReadOncePerSubmitAndBounded(t *testing.T) {
	var opens atomic.Int64
	runspec.OpenTraceFile = func(path string) (*os.File, error) {
		opens.Add(1)
		return os.Open(path)
	}
	defer func() { runspec.OpenTraceFile = os.Open }()

	_, ts := newTestServer(t, t.TempDir())
	abs, err := filepath.Abs(msrFixture)
	if err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, ts.URL, `{"type":"replay","scheme":"FTL","scale":1,"scenario":{"trace_path":"`+abs+`"}}`)
	if got := opens.Load(); got != 2 {
		t.Errorf("a trace_path submission and its job opened the file %d times, want 2 (the handler once, the job once)", got)
	}

	// A sparse file one byte over the bound: nothing of it is ever read.
	big := filepath.Join(t.TempDir(), "big.csv")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(runspec.MaxTraceFileBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"type":"replay","scheme":"FTL","scenario":{"trace_path":"`+big+`"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bound") {
		t.Errorf("over-bound trace file: %d %s, want 400 naming the bound", resp.StatusCode, msg)
	}
}

// A trace file that changes between the submission and its job must fail the
// job: the key hashes the bytes the handler read, so a result replayed from
// other bytes would be stored, and later served, under the wrong key.
func TestScenarioTraceSwappedBeforeJobFails(t *testing.T) {
	abs, err := filepath.Abs(msrFixture)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	half := filepath.Join(t.TempDir(), "half.csv")
	if err := os.WriteFile(half, []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	// The handler's open sees the fixture; the job's open, the halved copy.
	var opens atomic.Int64
	runspec.OpenTraceFile = func(path string) (*os.File, error) {
		if opens.Add(1) > 1 {
			return os.Open(half)
		}
		return os.Open(path)
	}
	defer func() { runspec.OpenTraceFile = os.Open }()

	s, ts := newTestServer(t, t.TempDir())
	code, st := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"type":"replay","scheme":"FTL","scale":1,"scenario":{"trace_path":"`+abs+`"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (status %+v)", code, st)
	}
	final := pollState(t, ts.URL, st.ID, 60*time.Second)
	if jobs.State(final.State) != jobs.StateFailed {
		t.Fatalf("job over a swapped trace file finished %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, abs) || !strings.Contains(final.Error, "changed") {
		t.Errorf("failure %q does not name the changed file %s", final.Error, abs)
	}
	if s.store.Has(st.Key) {
		t.Errorf("a result is stored under key %s, which names other bytes", st.Key)
	}
}
