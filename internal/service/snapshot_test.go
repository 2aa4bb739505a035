package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/runspec"
)

// agedReplay is a tiny aged FTL replay; %d slots the queue depth so two
// submissions get distinct content keys while sharing one aging key.
const agedReplay = `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.001,"age":true,"qd":%d,"priority":%d}`

func agingKeyOf(t *testing.T, sp runspec.Spec) string {
	t.Helper()
	sp.Normalise()
	key, err := sp.AgingKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// The aging key must capture exactly what shapes the warm state — scheme,
// device config, aging recipe — and nothing else. Workload knobs (aging is
// workload-independent), measurement knobs (qd) and scheduling knobs
// (priority, timeout) must not fragment checkpoint reuse.
func TestAgingKeyExcludesWorkloadAndSchedulingKnobs(t *testing.T) {
	base := runspec.Spec{Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true}
	want := agingKeyOf(t, base)

	same := map[string]runspec.Spec{
		"priority": {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, Priority: 9},
		"timeout":  {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, TimeoutMs: 5000},
		"qd":       {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, QD: 16},
		"profile":  {Type: "replay", Scheme: "FTL", Profile: "lun4", Age: true},
		"scale":    {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, Scale: 0.5},
		"seed":     {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, Seed: 42},
	}
	for name, sp := range same {
		if got := agingKeyOf(t, sp); got != want {
			t.Errorf("spec differing only in %s changed the aging key", name)
		}
	}

	diff := map[string]runspec.Spec{
		"scheme": {Type: "replay", Scheme: "Across-FTL", Profile: "lun1", Age: true},
		"page":   {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, Page: 4096},
		"full":   {Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true, Full: true},
	}
	for name, sp := range diff {
		if got := agingKeyOf(t, sp); got == want {
			t.Errorf("spec differing in %s (which changes warm state) kept the aging key", name)
		}
	}
}

func submitAndWait(t *testing.T, base, body string) jobStatus {
	t.Helper()
	code, st := postJSON(t, base+"/api/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (status %+v)", code, st)
	}
	final := pollState(t, base, st.ID, 60*time.Second)
	if jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	return final
}

func spanNames(st jobStatus) []string {
	names := make([]string, 0, len(st.Spans))
	for _, sp := range st.Spans {
		names = append(names, sp.Name)
	}
	return names
}

func hasSpan(st jobStatus, name string) bool {
	for _, sp := range st.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

func counterValue(s *Server, name string) float64 {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return float64(s.counts[name])
}

// Two aged jobs that differ only in measurement and scheduling knobs (qd,
// priority — distinct content keys, identical aging key) must share
// one aging run: the first ages and checkpoints, the second forks from the
// stored snapshot and records a "restore" span instead of "age".
func TestJobsForkFromSharedAgingCheckpoint(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())

	first := submitAndWait(t, ts.URL, fmt.Sprintf(agedReplay, 0, 0))
	if !hasSpan(first, "age") || hasSpan(first, "restore") {
		t.Fatalf("first job spans = %v, want an age span and no restore", spanNames(first))
	}

	second := submitAndWait(t, ts.URL, fmt.Sprintf(agedReplay, 8, 5))
	if second.Key == first.Key {
		t.Fatal("jobs deduplicated — the test needs two real runs")
	}
	if !hasSpan(second, "restore") || hasSpan(second, "age") {
		t.Fatalf("second job spans = %v, want a restore span and no age", spanNames(second))
	}
	// The aging_key attribute lands on the span that ended the aging phase.
	for _, st := range []jobStatus{first, second} {
		found := false
		for _, sp := range st.Spans {
			if sp.Attrs["aging_key"] != "" {
				found = true
			}
		}
		if !found {
			t.Errorf("job %s spans carry no aging_key attribute: %+v", st.ID, st.Spans)
		}
	}

	// The checkpoint itself is a first-class store entry under the aging key.
	akey := agingKeyOf(t, runspec.Spec{Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true})
	var entry SnapshotEntry
	ok, err := srv.Store().Get(akey, &entry)
	if err != nil || !ok {
		t.Fatalf("aging checkpoint missing from store: ok=%v err=%v", ok, err)
	}
	if entry.Kind != "snapshot" || entry.Scheme != "FTL" || len(entry.Blob) == 0 {
		t.Fatalf("checkpoint entry = {kind %q, scheme %q, %d blob bytes}", entry.Kind, entry.Scheme, len(entry.Blob))
	}

	if ages := counterValue(srv, "snapshot_ages"); ages != 1 {
		t.Errorf("snapshot_ages = %v, want 1", ages)
	}
	if restores := counterValue(srv, "snapshot_restores"); restores != 1 {
		t.Errorf("snapshot_restores = %v, want 1", restores)
	}

	// And the counters surface on /metrics in Prometheus exposition format.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"acrossd_snapshot_ages_total 1", "acrossd_snapshot_restores_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// Concurrent aged jobs sharing an aging key must queue on the per-key
// flight lock: exactly one ages, the rest fork from its checkpoint.
func TestConcurrentJobsAgeOnce(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())

	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(agedReplay, i+1, 0) // distinct qd → distinct content keys
			code, st := postJSON(t, ts.URL+"/api/v1/jobs", body)
			if code != http.StatusAccepted {
				t.Errorf("submit %d = %d, want 202", i, code)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	aged := 0
	for _, id := range ids {
		final := pollState(t, ts.URL, id, 60*time.Second)
		if jobs.State(final.State) != jobs.StateSucceeded {
			t.Fatalf("job %s finished %s (error %q)", id, final.State, final.Error)
		}
		if hasSpan(final, "age") {
			aged++
		}
	}
	if aged != 1 {
		t.Errorf("%d jobs ran the aging phase, want exactly 1", aged)
	}
	if ages := counterValue(srv, "snapshot_ages"); ages != 1 {
		t.Errorf("snapshot_ages = %v, want 1", ages)
	}
	if restores := counterValue(srv, "snapshot_restores"); restores != n-1 {
		t.Errorf("snapshot_restores = %v, want %d", restores, n-1)
	}
}
