package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/runspec"
	"across/internal/ssdconf"
	"across/internal/store"
	"across/internal/workload"
)

// TestFleetKeyMatrix pins the content-key rules for fleet jobs: the fleet
// block is a simulated-outcome knob (distinct keys per devices/layout/chunk),
// scheduling knobs stay excluded, equivalent chunk spellings canonicalise to
// one key, and the non-fleet key is untouched by the fleet machinery.
func TestFleetKeyMatrix(t *testing.T) {
	mk := func(mut func(*runspec.Spec)) string {
		sp := runspec.Spec{Type: "replay", Scheme: "Across-FTL", Profile: "lun1", Scale: 0.001,
			Fleet: &runspec.FleetSpec{Devices: 4, Layout: "raid0", ChunkKB: 64}}
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
		t.Error("identical fleet specs produced different keys")
	}
	for name, mut := range map[string]func(*runspec.Spec){
		"devices": func(sp *runspec.Spec) { sp.Fleet.Devices = 2 },
		"layout":  func(sp *runspec.Spec) { sp.Fleet.Layout = "raid10" },
		"chunk":   func(sp *runspec.Spec) { sp.Fleet.ChunkKB = 16 },
		"nofleet": func(sp *runspec.Spec) { sp.Fleet = nil },
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
	// The default chunk and an explicit 64 KB spell the same work.
	if mk(func(sp *runspec.Spec) { sp.Fleet.ChunkKB = 0 }) != base {
		t.Error("default chunk and explicit 64 KB produced different keys")
	}
	// Concat ignores the chunk entirely.
	concatA := mk(func(sp *runspec.Spec) { sp.Fleet.Layout = "concat"; sp.Fleet.ChunkKB = 16 })
	concatB := mk(func(sp *runspec.Spec) { sp.Fleet.Layout = "concat"; sp.Fleet.ChunkKB = 64 })
	if concatA != concatB {
		t.Error("concat chunk spelling fragmented the key")
	}
	// A non-fleet spec must hash exactly as before the fleet layer existed.
	nf := runspec.Spec{Type: "replay", Scheme: "Across-FTL", Profile: "lun1", Scale: 0.001}
	nf.Normalise()
	nfKey, err := nf.Key()
	if err != nil {
		t.Fatal(err)
	}
	if nfKey != legacyReplayKey(t, &nf) {
		t.Error("non-fleet key structure drifted — cached results would be orphaned")
	}
}

// TestFleetSpecValidation covers submit-time rejection of bad fleet blocks.
func TestFleetSpecValidation(t *testing.T) {
	for name, f := range map[string]runspec.FleetSpec{
		"zero-devices": {Devices: 0, Layout: "raid0"},
		"bad-layout":   {Devices: 4, Layout: "raid5"},
		"odd-raid10":   {Devices: 3, Layout: "raid10"},
		"huge-chunk":   {Devices: 4, Layout: "raid0", ChunkKB: 1 << 30},
	} {
		sp := runspec.Spec{Type: "replay", Scheme: "FTL", Profile: "lun1", Scale: 0.001, Fleet: &f}
		sp.Normalise()
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", name, f)
		}
	}
}

// TestFleetJobEndToEnd submits a fleet replay over HTTP, polls it to
// completion, and checks the stored FleetReplayResult digest; a second
// identical submission must be served from the store.
func TestFleetJobEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	body := `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.002,"age":true,` +
		`"fleet":{"devices":4,"layout":"raid10","chunk_kb":16}}`
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
	var res FleetReplayResult
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Layout != "raid10" || res.Devices != 4 || res.ChunkKB != 16 {
		t.Fatalf("volume shape wrong: %+v", res)
	}
	if res.Requests == 0 || res.Fanout < 1 || len(res.PerDevice) != 4 {
		t.Fatalf("digest looks wrong: requests=%d fanout=%g devices=%d", res.Requests, res.Fanout, len(res.PerDevice))
	}
	// Mirrored writes must fan out to both mirrors.
	if res.Writes > 0 && res.SubRequests <= res.Requests {
		t.Errorf("raid10 writes did not mirror: %d sub-requests for %d requests", res.SubRequests, res.Requests)
	}
	if res.WarmupWrites == 0 {
		t.Error("aged fleet job reports zero warm-up writes")
	}
	// The fleet job aged once and stored the single-device checkpoint.
	if got := s.counterValue("snapshot_ages"); got != 1 {
		t.Errorf("snapshot_ages = %d, want 1", got)
	}

	// Same spec again: deduplicated, no second run.
	code, st2 := postJSON(t, ts.URL+"/api/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (deduped)", code)
	}
	if st2.Key != st.Key {
		t.Fatalf("resubmit key %s != %s", st2.Key, st.Key)
	}
}

// TestFleetJobReusesSingleDeviceCheckpoint runs a single-device aged job and
// then a fleet job with the same scheme/config: the fleet job must fork all
// devices from the stored checkpoint instead of aging again.
func TestFleetJobReusesSingleDeviceCheckpoint(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	single := `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.001,"age":true}`
	_, st := postJSON(t, ts.URL+"/api/v1/jobs", single)
	if f := pollState(t, ts.URL, st.ID, 60*time.Second); jobs.State(f.State) != jobs.StateSucceeded {
		t.Fatalf("single-device job finished %s (error %q)", f.State, f.Error)
	}
	if got := s.counterValue("snapshot_ages"); got != 1 {
		t.Fatalf("snapshot_ages = %d after single-device job, want 1", got)
	}

	fleetBody := `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.001,"age":true,` +
		`"fleet":{"devices":3,"layout":"concat"}}`
	_, st2 := postJSON(t, ts.URL+"/api/v1/jobs", fleetBody)
	if f := pollState(t, ts.URL, st2.ID, 60*time.Second); jobs.State(f.State) != jobs.StateSucceeded {
		t.Fatalf("fleet job finished %s (error %q)", f.State, f.Error)
	}
	if got := s.counterValue("snapshot_ages"); got != 1 {
		t.Errorf("snapshot_ages = %d after fleet job, want 1 (should fork, not re-age)", got)
	}
	if got := s.counterValue("snapshot_restores"); got < 3 {
		t.Errorf("snapshot_restores = %d, want >= 3 (one per fleet device)", got)
	}
}

// legacyReplayKey reproduces the pre-fleet key structure verbatim; the live
// Key() must keep producing it for non-fleet specs so stored results stay
// addressable.
func legacyReplayKey(t *testing.T, sp *runspec.Spec) string {
	t.Helper()
	prof, err := sp.ScaledProfile()
	if err != nil {
		t.Fatal(err)
	}
	key, err := store.HashJSON(struct {
		V       int
		Kind    string
		Conf    ssdconf.Config
		Profile workload.Profile
		QD      int
		Age     bool
	}{runspec.KeyVersion, "replay/" + sp.Scheme, sp.Config(), prof, sp.QD, sp.Age})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// counterValue reads one counter series (-1 when absent).
func (s *Server) counterValue(name string) int64 {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if v, ok := s.counts[name]; ok {
		return v
	}
	return -1
}
