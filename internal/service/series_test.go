package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/obs"
	"across/internal/runspec"
	"across/internal/sim"
)

// runToSuccess submits a spec, requires the given submit code and waits for
// the job to succeed.
func runToSuccess(t *testing.T, base, spec string, wantCode int) jobStatus {
	t.Helper()
	code, st := postJSON(t, base+"/api/v1/jobs", spec)
	if code != wantCode {
		t.Fatalf("submit = %d (status %+v), want %d", code, st, wantCode)
	}
	if final := pollState(t, base, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	return st
}

// outcome fetches the three bodies a finished job serves.
func outcome(t *testing.T, base, id string) (result, progress, artifact []byte) {
	t.Helper()
	bodies := make([][]byte, 3)
	for i, p := range []string{"/result", "/progress", "/artifacts/metrics"} {
		code, body := fetchBytes(t, base+"/api/v1/jobs/"+id+p)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", p, code, body)
		}
		bodies[i] = body
	}
	return bodies[0], bodies[1], bodies[2]
}

// simSeries replays a spec outside the service, as runReplay configures it,
// and encodes the sampler's series one json.Encoder line per sample.
func simSeries(t *testing.T, srv *Server, spec string) []byte {
	t.Helper()
	var sp runspec.Spec
	if err := strictUnmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp.Normalise()
	conf := sp.Config()
	reqs, _, err := sp.Requests(conf.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.SchemeKind(sp.Scheme), conf)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := obs.NewSampler(srv.cfg.SampleIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSampler(smp)
	if _, err := r.ReplayQDCtx(context.Background(), reqs, sp.QD); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sm := range smp.Samples() {
		if err := enc.Encode(&sm); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// seriesReplay is tinyReplay ten times as long: some 430 samples, whose
// counters and busy times have the digits a real job's have.
const seriesReplay = `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.01,"seed":%d}`

// TestRestartServesStoredSeries: what a finished job serves — result,
// progress stream, metrics artifact — a restarted server serves byte for
// byte from the store (the result document's "cached" member apart), the
// series is the sampler's, one json.Encoder line per sample, and it lives
// beside a small entry, not in it, in a form under half the size of the
// document it is served as. A finished job's hub keeps no history: its
// /progress is formatted from the same file.
func TestRestartServesStoredSeries(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(seriesReplay, 21)
	srv, ts := newTestServer(t, dir)
	st := runToSuccess(t, ts.URL, spec, http.StatusAccepted)
	result, progress, artifact := outcome(t, ts.URL, st.ID)

	if want := simSeries(t, srv, spec); !bytes.Equal(artifact, want) {
		t.Fatalf("artifact is %d bytes, the sampler's series encodes to %d", len(artifact), len(want))
	}
	if !bytes.Equal(progress, artifact) || bytes.Count(artifact, []byte("\n")) < 2 {
		t.Fatalf("finished-job /progress (%d bytes) differs from the artifact (%d bytes, %d lines)",
			len(progress), len(artifact), bytes.Count(artifact, []byte("\n")))
	}
	if n := srv.record(st.ID).hub.retained(); n != 0 {
		t.Fatalf("the finished job's hub still holds %d samples", n)
	}
	sibling, err := os.ReadFile(filepath.Join(dir, st.Key[:2], st.Key+samplesExt))
	if err != nil || len(sibling) >= len(artifact)/2 {
		t.Fatalf("sibling file: %v, %d bytes, want under half the artifact's %d", err, len(sibling), len(artifact))
	}
	var stored bytes.Buffer
	if samples, err := obs.DecodeSeries(sibling); err != nil || obs.WriteNDJSON(&stored, samples) != nil || !bytes.Equal(stored.Bytes(), artifact) {
		t.Fatalf("sibling file decodes (%v) to %d bytes of NDJSON, want the artifact's %d", err, stored.Len(), len(artifact))
	}
	entry, err := os.ReadFile(filepath.Join(dir, st.Key[:2], st.Key+".json"))
	if err != nil || len(entry) > 4<<10 || bytes.Contains(entry, []byte(`"samples"`)) {
		t.Fatalf("entry file: %v, %d bytes; want a small entry without the series", err, len(entry))
	}

	_, ts2 := newTestServer(t, dir)
	st2 := runToSuccess(t, ts2.URL, spec, http.StatusOK)
	if !st2.Cached || st2.ID != st.ID {
		t.Fatalf("restarted server: %+v, want a cache-served %s", st2, st.ID)
	}
	result2, progress2, artifact2 := outcome(t, ts2.URL, st2.ID)
	if want := bytes.Replace(result, []byte(`"cached": false`), []byte(`"cached": true`), 1); !bytes.Equal(result2, want) {
		t.Fatalf("stored /result:\n%s\ncold, with cached set:\n%s", result2, want)
	}
	if !bytes.Equal(progress2, progress) || !bytes.Equal(artifact2, artifact) {
		t.Fatalf("stored /progress %d bytes and artifact %d bytes, cold %d and %d",
			len(progress2), len(artifact2), len(progress), len(artifact))
	}
}

// TestRetriedJobStreamsOnce: an attempt retried after its store phase
// failed replays to the same series, and a stream joined at submit carries
// each sample once — the sampler's series byte for byte — then ends with the
// failed job.
func TestRetriedJobStreamsOnce(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(seriesReplay, 24)
	var sp runspec.Spec
	if err := strictUnmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp.Normalise()
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the sibling goes fails every attempt's putSeries.
	if err := os.MkdirAll(filepath.Join(dir, key[:2], key+samplesExt), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted || st.Key != key {
		t.Fatalf("submit = %d (status %+v), want 202 for key %s", code, st, key)
	}
	stream, err := readProgress(ts.URL+"/api/v1/jobs/"+st.ID+"/progress", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := pollState(t, ts.URL, st.ID, 30*time.Second)
	if jobs.State(final.State) != jobs.StateFailed || final.Attempts != 2 {
		t.Fatalf("job finished %s after %d attempts (error %q), want failed after 2", final.State, final.Attempts, final.Error)
	}
	if want := simSeries(t, srv, spec); !bytes.Equal(stream, want) {
		t.Fatalf("the stream carried %d lines, the sampler's series is %d samples",
			bytes.Count(stream, []byte("\n")), bytes.Count(want, []byte("\n")))
	}
}

// retained counts the samples a hub holds.
func (h *progressHub) retained() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.series)
}

// expectNoSeries checks what a stored entry without a sibling serves: the
// result, cache-served, an empty progress stream and a 404 for the artifact.
func expectNoSeries(t *testing.T, base, spec string, wantResult []byte) {
	t.Helper()
	st := runToSuccess(t, base, spec, http.StatusOK)
	if !st.Cached {
		t.Fatalf("status %+v, want cache-served", st)
	}
	code, doc := fetchResult(t, base, st.ID)
	var got, want bytes.Buffer
	if code == http.StatusOK {
		json.Compact(&got, doc["result"])
		json.Compact(&want, wantResult)
	}
	if code != http.StatusOK || string(doc["cached"]) != "true" || got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("result = %d cached=%s\n%s\nwant\n%s", code, doc["cached"], got.Bytes(), want.Bytes())
	}
	if code, body := fetchBytes(t, base+"/api/v1/jobs/"+st.ID+"/artifacts/metrics"); code != http.StatusNotFound {
		t.Fatalf("artifact of an entry without a series = %d (%d bytes), want 404", code, len(body))
	}
	if code, body := fetchBytes(t, base+"/api/v1/jobs/"+st.ID+"/progress"); code != http.StatusOK || len(body) != 0 {
		t.Fatalf("progress of an entry without a series = %d (%d bytes), want an empty 200", code, len(body))
	}
}

// TestOldLayoutEntryServesResult: an entry an older daemon wrote — indented,
// the series inline as "samples" — still serves its result; the series it
// carries is not read.
func TestOldLayoutEntryServesResult(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "entry-inline-samples.json"))
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Spec    json.RawMessage `json:"spec"`
		Result  json.RawMessage `json:"result"`
		Samples []obs.Sample    `json:"samples"`
	}
	if err := json.Unmarshal(fixture, &old); err != nil || len(old.Samples) == 0 {
		t.Fatalf("fixture: %v, %d inline samples", err, len(old.Samples))
	}
	var sp runspec.Spec
	if err := strictUnmarshal(old.Spec, &sp); err != nil {
		t.Fatal(err)
	}
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key[:2], key+".json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, dir)
	expectNoSeries(t, ts.URL, string(old.Spec), old.Result)
}

// TestEntryWithoutSiblingServesResult: losing the sibling costs the series,
// not the result.
func TestEntryWithoutSiblingServesResult(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(tinyReplay, 22)
	_, ts := newTestServer(t, dir)
	st := runToSuccess(t, ts.URL, spec, http.StatusAccepted)
	_, doc := fetchResult(t, ts.URL, st.ID)
	if err := os.Remove(filepath.Join(dir, st.Key[:2], st.Key+samplesExt)); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, dir)
	expectNoSeries(t, ts2.URL, spec, doc["result"])
}

// TestSeriesWithoutEntryIsRerun: a daemon killed between the two writes of
// the store phase leaves a sibling and no entry. The entry is the commit
// point: the key is absent, the series unreachable, and the resubmitted job
// runs and overwrites it.
func TestSeriesWithoutEntryIsRerun(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(tinyReplay, 23)
	var sp runspec.Spec
	if err := strictUnmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	sp.Normalise()
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	if err := srv.putSeries(key, []obs.Sample{{TimeMs: -1}}); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Has(key) || srv.Store().Len() != 0 {
		t.Fatalf("a lone series made key %s present (Len %d)", key, srv.Store().Len())
	}
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted || st.Key != key {
		t.Fatalf("submit over a lone series = %d (status %+v), want 202 for key %s", code, st, key)
	}
	// Until the rerun commits, the orphan is not served.
	if code, body := fetchBytes(t, ts.URL+"/api/v1/jobs/"+st.ID+"/artifacts/metrics"); code == http.StatusOK && strings.Contains(string(body), `"t_ms":-1`) {
		t.Fatalf("the orphaned series was served: %s", body)
	}
	if final := pollState(t, ts.URL, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("rerun finished %s (error %q)", final.State, final.Error)
	}
	_, _, artifact := outcome(t, ts.URL, st.ID)
	if want := simSeries(t, srv, spec); !bytes.Equal(artifact, want) {
		t.Fatalf("artifact after the rerun is %d bytes, the sampler's series %d", len(artifact), len(want))
	}
}

// TestTornSeriesIsNotServed: a series sibling cut short or altered anywhere
// costs the series and nothing else. Every fetch of it answers as if it were
// absent and is counted; no fetch serves a part of it; the entry stays where
// it is and, the sibling repaired, serves the series again.
func TestTornSeriesIsNotServed(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(seriesReplay, 25)
	_, ts := newTestServer(t, dir)
	st := runToSuccess(t, ts.URL, spec, http.StatusAccepted)
	_, doc := fetchResult(t, ts.URL, st.ID)
	_, _, artifact := outcome(t, ts.URL, st.ID)
	path := filepath.Join(dir, st.Key[:2], st.Key+samplesExt)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, dir)
	torn := 0
	for off := 0; off < len(intact); off += 4 << 10 {
		flipped := bytes.Clone(intact)
		flipped[min(off+off>>12, len(intact)-1)] ^= 0x10 // a different byte of each block
		for _, blob := range [][]byte{intact[:off], flipped} {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			expectNoSeries(t, ts2.URL, spec, doc["result"])
			torn += 2 // the artifact fetch and the progress fetch
		}
	}
	if torn < 80 {
		t.Fatalf("only %d fetches of a torn sibling: the series is %d bytes", torn, len(intact))
	}
	if got := scrapeMetrics(t, ts2.URL)["acrossd_series_unreadable_total"]; got != float64(torn) {
		t.Errorf("acrossd_series_unreadable_total = %v after %d fetches of a torn sibling", got, torn)
	}
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "*", "*.corrupt")); len(corrupt) != 0 || !srv2.Store().Has(st.Key) {
		t.Fatalf("a torn sibling cost the entry: quarantined %v", corrupt)
	}
	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := runToSuccess(t, ts2.URL, spec, http.StatusOK)
	if _, _, again := outcome(t, ts2.URL, st2.ID); !bytes.Equal(again, artifact) {
		t.Fatalf("the repaired sibling serves %d bytes, want the artifact's %d", len(again), len(artifact))
	}
}

// BenchmarkServeSeries prices the read path: one finished job's stored
// series fetched through the handler — open, read, verify, decode, format.
func BenchmarkServeSeries(b *testing.B) {
	srv, err := New(Config{StoreDir: b.TempDir(), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest("POST", "/api/v1/jobs", strings.NewReader(fmt.Sprintf(seriesReplay, 26))))
	var st jobStatus
	if err := json.Unmarshal(post.Body.Bytes(), &st); err != nil || post.Code != http.StatusAccepted {
		b.Fatalf("submit = %d: %v", post.Code, err)
	}
	rec := srv.record(st.ID)
	<-rec.job.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/jobs/"+st.ID+"/artifacts/metrics", nil))
		if w.Code != http.StatusOK {
			b.Fatalf("artifact = %d", w.Code)
		}
		b.SetBytes(int64(w.Body.Len()))
	}
}
