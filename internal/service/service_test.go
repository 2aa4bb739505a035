package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/obs"
)

// newTestServer spins up a Server over dir behind an httptest listener.
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, Config{StoreDir: dir})
}

// newTestServerConfig is newTestServer with cfg's other members kept.
func newTestServerConfig(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Workers, cfg.QueueCap, cfg.Retries, cfg.Backoff = 4, 512, 1, time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("parsing response %q: %v", raw, err)
	}
	return resp.StatusCode, st
}

// pollState polls a job's status until it reaches a terminal state or the
// deadline passes, returning the final status.
func pollState(t *testing.T, base, id string, deadline time.Duration) jobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jobs.State(st.State) {
		case jobs.StateSucceeded, jobs.StateFailed, jobs.StateCancelled:
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after %v", id, st.State, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, base, id string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing result %q: %v", raw, err)
	}
	return resp.StatusCode, doc
}

const tinyReplay = `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.001,"seed":%d}`

// TestSubmitPollFetch is the end-to-end happy path: submit, poll to
// completion, fetch the result document, and confirm the digest is sane.
func TestSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(tinyReplay, 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.Key == "" || st.Kind != "replay" {
		t.Fatalf("submit status = %+v", st)
	}
	final := pollState(t, ts.URL, st.ID, 30*time.Second)
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
	if res.Scheme != "Across-FTL" || res.Requests == 0 || res.AvgWriteMs <= 0 {
		t.Fatalf("result digest looks wrong: %+v", res)
	}
}

// TestDoubleSubmitRunsOnce submits the identical spec twice: the second
// submission must be deduplicated (200, not 202) and the simulator must
// have run exactly once (jobs_submitted stays at 1).
func TestDoubleSubmitRunsOnce(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	spec := fmt.Sprintf(tinyReplay, 2)
	code, first := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	code, second := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusOK {
		t.Fatalf("second submit = %d, want 200", code)
	}
	if !second.Deduped && !second.Cached {
		t.Fatalf("second submit not deduplicated: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	pollState(t, ts.URL, first.ID, 30*time.Second)
	// A third submission after completion is served without a new run too.
	code, third := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusOK || (!third.Deduped && !third.Cached) {
		t.Fatalf("post-completion submit = %d %+v", code, third)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["acrossd_jobs_submitted_total"] != 1 {
		t.Fatalf("acrossd_jobs_submitted_total = %v, want 1 (dedup must not re-run)", m["acrossd_jobs_submitted_total"])
	}
	if m["acrossd_jobs_deduped_total"]+m["acrossd_jobs_cached_total"] < 2 {
		t.Fatalf("deduped+cached = %v, want >= 2", m["acrossd_jobs_deduped_total"]+m["acrossd_jobs_cached_total"])
	}
}

// TestListJobs: GET /api/v1/jobs answers {"jobs": [...]} in submission
// order, one entry per record — a dedup hit answers with the record it hit
// and adds none — and each entry says what GET /api/v1/jobs/{id} says.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	var ids []string
	for _, seed := range []int{5, 6, 5} {
		code, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(tinyReplay, seed))
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit seed %d = %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	if ids[2] != ids[0] || ids[1] == ids[0] {
		t.Fatalf("submitted ids %v: want the third to dedup onto the first", ids)
	}
	ids = ids[:2]
	for _, id := range ids {
		pollState(t, ts.URL, id, 30*time.Second)
	}

	code, raw := fetchBytes(t, ts.URL+"/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list = %d: %s", code, raw)
	}
	var doc map[string][]jobStatus
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing list %q: %v", raw, err)
	}
	list, ok := doc["jobs"]
	if !ok || len(doc) != 1 || len(list) != len(ids) {
		t.Fatalf("list = %s, want {\"jobs\": [...]} with %d entries", raw, len(ids))
	}
	for i, got := range list {
		want := pollState(t, ts.URL, ids[i], time.Second)
		if got.ID != ids[i] || got.ID != want.ID || got.Key != want.Key ||
			got.State != want.State || got.Cached != want.Cached {
			t.Errorf("list entry %d = %s/%s/%s/cached=%v, GET %s says %s/%s/%s/cached=%v", i,
				got.ID, got.Key, got.State, got.Cached, ids[i], want.ID, want.Key, want.State, want.Cached)
		}
	}
}

// scrapeMetrics fetches /metrics, validates it as Prometheus text exposition
// format, and returns the sample values by metric name.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want text exposition 0.0.4", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateProm(page); err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\npage:\n%s", err, page)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unexpected sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// TestMetricsExposition checks the /metrics page itself: every pre-registered
// counter appears zeroed with the acrossd_ namespace and _total suffix, and
// the scheduler and store gauges reflect the configuration.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	m := scrapeMetrics(t, ts.URL)
	for _, name := range []string{
		"acrossd_jobs_submitted_total", "acrossd_jobs_deduped_total",
		"acrossd_jobs_cached_total", "acrossd_jobs_succeeded_total",
		"acrossd_jobs_failed_total", "acrossd_jobs_cancelled_total",
		"acrossd_checkpoint_cache_hits_total", "acrossd_checkpoint_cache_evictions_total",
		"acrossd_checkpoint_cache_bytes",
		"acrossd_series_unreadable_total", "acrossd_store_bytes_written_total",
	} {
		if v, ok := m[name]; !ok || v != 0 {
			t.Errorf("%s = %v, %v; want present and 0 on a fresh server", name, v, ok)
		}
	}
	if m["acrossd_scheduler_workers"] != 4 || m["acrossd_scheduler_queue_cap"] != 512 {
		t.Errorf("scheduler gauges wrong: workers=%v queue_cap=%v", m["acrossd_scheduler_workers"], m["acrossd_scheduler_queue_cap"])
	}
	if _, ok := m["acrossd_store_entries"]; !ok {
		t.Error("acrossd_store_entries missing")
	}
}

// TestCancelMidReplay submits a deliberately long job, waits for it to be
// running, cancels it, and requires the replay to stop quickly rather than
// run to completion.
func TestCancelMidReplay(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	long := `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":1.0,"age":true}`
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	// Wait for the worker to pick it up.
	stop := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur jobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if jobs.State(cur.State) == jobs.StateRunning {
			break
		}
		if cur.State != string(jobs.StateQueued) {
			t.Fatalf("job reached %s before cancel", cur.State)
		}
		if time.Now().After(stop) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelled := time.Now()
	resp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := pollState(t, ts.URL, st.ID, 5*time.Second)
	if jobs.State(final.State) != jobs.StateCancelled {
		t.Fatalf("job finished %s, want cancelled (error %q)", final.State, final.Error)
	}
	if took := time.Since(cancelled); took > 5*time.Second {
		t.Fatalf("cancel took %v, want prompt mid-replay stop", took)
	}
	// The result endpoint must report the cancellation, not a document.
	code, _ = fetchResult(t, ts.URL, st.ID)
	if code != http.StatusConflict {
		t.Fatalf("result after cancel = %d, want 409", code)
	}
	resubmitRuns(t, ts.URL, long, st.ID)
}

// resubmitRuns submits spec again after the job prevID, which had it, failed
// or was cancelled: such a record cannot answer for its key, so the service
// must queue a new job under a new id rather than report a dedup hit.
func resubmitRuns(t *testing.T, base, spec, prevID string) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("parsing response %q: %v", raw, err)
	}
	if resp.StatusCode != http.StatusAccepted || !strings.HasPrefix(st.ID, "job-") || st.ID == prevID ||
		bytes.Contains(raw, []byte(`"deduped"`)) {
		t.Fatalf("resubmit after %s = %d %s, want 202 with a new job id and no deduped member", prevID, resp.StatusCode, raw)
	}
}

// TestJobTimeout gives a long job a tiny per-job timeout and expects a
// failed state carrying the deadline error.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	long := `{"type":"replay","scheme":"FTL","profile":"lun2","scale":1.0,"age":true,"timeout_ms":50}`
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := pollState(t, ts.URL, st.ID, 15*time.Second)
	if jobs.State(final.State) != jobs.StateFailed {
		t.Fatalf("job finished %s, want failed (error %q)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", final.Error)
	}
	resubmitRuns(t, ts.URL, long, st.ID)
}

// TestRestartServesFromStore runs a job to completion on one server, then
// opens a second server over the same store directory: the same spec must
// be served from disk without running the simulator again.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(tinyReplay, 3)
	{
		_, ts := newTestServer(t, dir)
		_, st := postJSON(t, ts.URL+"/api/v1/jobs", spec)
		final := pollState(t, ts.URL, st.ID, 30*time.Second)
		if jobs.State(final.State) != jobs.StateSucceeded {
			t.Fatalf("first run finished %s", final.State)
		}
	}
	_, ts2 := newTestServer(t, dir)
	code, st := postJSON(t, ts2.URL+"/api/v1/jobs", spec)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("after restart: code=%d status=%+v, want 200 cached", code, st)
	}
	if jobs.State(st.State) != jobs.StateSucceeded {
		t.Fatalf("cached job state = %s, want succeeded", st.State)
	}
	code, doc := fetchResult(t, ts2.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("cached result = %d, want 200", code)
	}
	var res ReplayResult
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatalf("cached result digest empty: %+v", res)
	}
	// Cancelling a cache-served record is meaningless and must say so.
	resp, err := http.Post(ts2.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of cached job = %d, want 409", resp.StatusCode)
	}
}

// TestCorruptStoreEntryIsRerun truncates a stored result behind a restarted
// server. Submit still dedups on the entry's existence, but the fetch finds
// it undecodable, quarantines it and answers 404 — and the next submission
// of the spec runs the job again instead of pointing at the dead entry.
func TestCorruptStoreEntryIsRerun(t *testing.T) {
	dir := t.TempDir()
	spec := fmt.Sprintf(tinyReplay, 4)
	var key string
	{
		_, ts := newTestServer(t, dir)
		_, st := postJSON(t, ts.URL+"/api/v1/jobs", spec)
		if final := pollState(t, ts.URL, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
			t.Fatalf("first run finished %s", final.State)
		}
		key = st.Key
	}
	if err := os.Truncate(filepath.Join(dir, key[:2], key+".json"), 100); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, dir)
	code, st := postJSON(t, ts2.URL+"/api/v1/jobs", spec)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("submit over corrupt entry: code=%d status=%+v, want 200 cached", code, st)
	}
	if code, _ := fetchResult(t, ts2.URL, st.ID); code != http.StatusNotFound {
		t.Fatalf("fetch of corrupt entry = %d, want 404", code)
	}
	code, st = postJSON(t, ts2.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after quarantine = %d (status %+v), want 202: the job must run again", code, st)
	}
	if final := pollState(t, ts2.URL, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("rerun finished %s (error %q)", final.State, final.Error)
	}
	code, doc := fetchResult(t, ts2.URL, st.ID)
	if code != http.StatusOK || len(doc["result"]) == 0 {
		t.Fatalf("rerun result = %d %v, want 200 with a result", code, doc)
	}
}

// TestProgressStream: every /progress stream carries the job's whole
// series, each sample once and byte for byte what /artifacts/metrics serves
// — a reader joined at submit that pauses after every line, one joined while
// the job runs and one joined after it finished — on a job with more samples
// than a 256-sample buffer holds.
func TestProgressStream(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{StoreDir: t.TempDir(), SampleIntervalMs: 10})
	code, st := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.01,"seed":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	url := ts.URL + "/api/v1/jobs/" + st.ID + "/progress"
	type read struct {
		body []byte
		err  error
	}
	slow, mid := make(chan read, 1), make(chan read, 1)
	first := make(chan struct{})
	go func() {
		b, err := readProgress(url, 20*time.Microsecond, first)
		slow <- read{b, err}
	}()
	go func() {
		<-first
		b, err := readProgress(url, 0, nil)
		mid <- read{b, err}
	}()
	if final := pollState(t, ts.URL, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	late, err := readProgress(url, 0, nil)
	if err != nil {
		t.Fatalf("reader joined after the job: %v", err)
	}
	_, artifact := fetchBytes(t, ts.URL+"/api/v1/jobs/"+st.ID+"/artifacts/metrics")
	if n := bytes.Count(artifact, []byte("\n")); n <= 256 {
		t.Fatalf("the artifact holds %d samples, want more than 256", n)
	}
	for _, r := range []struct {
		name string
		read
	}{{"joined at submit, throttled", <-slow}, {"joined mid-run", <-mid}, {"joined after the job", read{late, nil}}} {
		if r.err != nil {
			t.Fatalf("reader %s: %v", r.name, r.err)
		}
		if !bytes.Equal(r.body, artifact) {
			t.Errorf("reader %s got %d samples (%d bytes), the artifact has %d (%d bytes)", r.name,
				bytes.Count(r.body, []byte("\n")), len(r.body), bytes.Count(artifact, []byte("\n")), len(artifact))
		}
	}
}

// readProgress reads a /progress stream to its end, sleeping pause after
// every line, and checks it is NDJSON of time-ordered samples. first, when
// not nil, is closed once the first line is in.
func readProgress(url string, pause time.Duration, first chan<- struct{}) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("progress Content-Type = %q", ct)
	}
	defer func() {
		if first != nil {
			close(first)
		}
	}()
	var out bytes.Buffer
	br := bufio.NewReader(resp.Body)
	last := -1.0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return out.Bytes(), nil
		}
		if err != nil {
			return nil, fmt.Errorf("after %d bytes: %v", out.Len(), err)
		}
		var sm obs.Sample
		if err := json.Unmarshal(line, &sm); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %v", line, err)
		}
		if sm.TimeMs < last {
			return nil, fmt.Errorf("samples out of order: %v after %v", sm.TimeMs, last)
		}
		last = sm.TimeMs
		out.Write(line)
		if first != nil {
			close(first)
			first = nil
		}
		time.Sleep(pause)
	}
}

// TestManyConcurrentJobs floods the service with distinct jobs from many
// goroutines and requires every one to finish successfully with a stored
// result — no deadlocks, no lost jobs.
func TestManyConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts := newTestServer(t, t.TempDir())
	const jobsN = 120
	ids := make([]string, jobsN)
	var wg sync.WaitGroup
	errs := make(chan error, jobsN)
	for i := 0; i < jobsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(tinyReplay, 1000+i))
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("job %d: submit = %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, id := range ids {
		final := pollState(t, ts.URL, id, 60*time.Second)
		if jobs.State(final.State) != jobs.StateSucceeded {
			t.Fatalf("job %d (%s) finished %s (error %q)", i, id, final.State, final.Error)
		}
	}
	if got := srv.Store().Len(); got != jobsN {
		t.Fatalf("store holds %d entries, want %d", got, jobsN)
	}
}

// TestBadRequests covers the submit-validation surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	cases := []struct {
		name, body string
	}{
		{"not json", `{{`},
		{"unknown type", `{"type":"mystery"}`},
		{"unknown scheme", `{"type":"replay","scheme":"LISA","profile":"lun1"}`},
		{"unknown profile", `{"type":"replay","scheme":"FTL","profile":"lun99"}`},
		{"bad scale", `{"type":"replay","scheme":"FTL","profile":"lun1","scale":7}`},
		{"unknown field", `{"type":"replay","scheme":"FTL","profile":"lun1","scael":0.1}`},
		{"unknown experiment", `{"type":"experiment","id":"fig99"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Unknown job lookups 404 across the read endpoints.
	for _, path := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/result", "/api/v1/jobs/nope/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthzAndStoreKeys sanity-checks the liveness and store-listing
// endpoints.
func TestHealthzAndStoreKeys(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthz
	err = json.NewDecoder(resp.Body).Decode(&hz)
	if err != nil || hz.Status != "ok" {
		t.Fatalf("healthz: %v %+v", err, hz)
	}
	if hz.Workers != 4 || hz.QueueCap != 512 {
		t.Fatalf("healthz capacities wrong: %+v", hz)
	}
	if hz.Saturated || hz.Draining || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("idle server reports saturation: %+v Retry-After=%q", hz, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	_, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(tinyReplay, 5))
	pollState(t, ts.URL, st.ID, 30*time.Second)
	resp, err = http.Get(ts.URL + "/api/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	var keys struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&keys)
	resp.Body.Close()
	if err != nil || keys.Count != 1 || len(keys.Keys) != 1 || keys.Keys[0] != st.Key {
		t.Fatalf("store listing: %v %+v (want key %s)", err, keys, st.Key)
	}
}

// TestDrainFinishesOutstanding checks graceful drain: queued work finishes,
// new submissions are refused with 503.
func TestDrainFinishesOutstanding(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	_, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(tinyReplay, 6))
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := pollState(t, ts.URL, st.ID, time.Second)
	if jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("drained job finished %s", final.State)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(tinyReplay, 7)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", resp.StatusCode)
	}
}

// TestWorkersKnobIsFleetOnly: no replay spec takes a workers field, since a
// fleet replays its devices serially. The strict decoder answers a
// single-device or a fleet spec that names it with 400 naming the field, and
// the same fleet spec without it runs.
func TestWorkersKnobIsFleetOnly(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	const fleetSpec = `{"type":"replay","scheme":"MRSM","profile":"lun2","scale":0.002,` +
		`"fleet":{"devices":2,"layout":"raid0"}%s}`
	for name, body := range map[string]string{
		"single-device": `{"type":"replay","scheme":"MRSM","profile":"lun2","scale":0.002,"workers":4}`,
		"fleet":         fmt.Sprintf(fleetSpec, `,"workers":4`),
	} {
		code, st := postJSON(t, ts.URL+"/api/v1/jobs", body)
		if code != http.StatusBadRequest || !strings.Contains(st.Error, "workers") {
			t.Errorf("%s workers=4: code %d, error %q; want 400 naming workers", name, code, st.Error)
		}
	}

	code, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(fleetSpec, ""))
	if code != http.StatusAccepted {
		t.Fatalf("fleet without workers: submit = %d (error %q), want 202", code, st.Error)
	}
	if final := pollState(t, ts.URL, st.ID, 30*time.Second); jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("fleet job finished %s (error %q)", final.State, final.Error)
	}
}

// fetchBytes GETs a path and returns code and body.
func fetchBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestJobSpansAndTrace checks the per-job span log: a finished replay
// reports its phases in the job status and renders them as a Chrome
// trace_event document, while a record without a span log (one served from
// the store after a restart) says so.
func TestJobSpansAndTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	spec := `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.002,"seed":12,"age":true}`
	code, st := postJSON(t, ts.URL+"/api/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := pollState(t, ts.URL, st.ID, 30*time.Second)
	if jobs.State(final.State) != jobs.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", final.State, final.Error)
	}
	got := map[string]Span{}
	for _, sp := range final.Spans {
		got[sp.Name] = sp
		if sp.EndMs < sp.StartMs {
			t.Errorf("span %s ends before it starts: %+v", sp.Name, sp)
		}
	}
	for _, name := range []string{"queued", "generate", "age", "replay", "store"} {
		if _, ok := got[name]; !ok {
			t.Errorf("span %q missing; have %+v", name, final.Spans)
		}
	}

	code, body := fetchBytes(t, ts.URL+"/api/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace = %d, want 200", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) < 5 {
		t.Fatalf("trace has %d events, want the full phase log", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("bad trace event %+v", ev)
		}
	}

	// A record served from the store ran nothing here and has no span log;
	// the endpoint says so rather than rendering an empty trace.
	_, ts2 := newTestServer(t, dir)
	code, cst := postJSON(t, ts2.URL+"/api/v1/jobs", spec)
	if code != http.StatusOK || !cst.Cached {
		t.Fatalf("resubmit after restart: code=%d status=%+v, want 200 cached", code, cst)
	}
	if code, _ := fetchBytes(t, ts2.URL+"/api/v1/jobs/"+cst.ID+"/trace"); code != http.StatusConflict {
		t.Errorf("cache-served trace = %d, want 409", code)
	}
}

// TestHealthzSaturation fills a one-slot queue behind a one-worker pool and
// requires /healthz to flip to saturated with a Retry-After hint, then to
// draining once Drain begins.
func TestHealthzSaturation(t *testing.T) {
	s, err := New(Config{
		StoreDir: t.TempDir(),
		Workers:  1,
		QueueCap: 1,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	long := `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":1.0,"age":true,"seed":%d}`
	if code, _ := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(long, 13)); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	// Wait until the worker picks the first job up, then occupy the queue.
	stop := time.Now().Add(10 * time.Second)
	for s.sched.Stats().Running == 0 {
		if time.Now().After(stop) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(long, 14)); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hz.Saturated || hz.Status != "saturated" || hz.Queued < hz.QueueCap {
		t.Fatalf("healthz with full queue: %+v", hz)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated healthz carries no Retry-After")
	}
	if hz.QueueFill < 1 {
		t.Errorf("queue_fill = %v, want >= 1", hz.QueueFill)
	}
	// Close cancels both jobs (so the test never waits out two full
	// replays) and leaves the scheduler draining.
	s.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "draining" || !hz.Draining || resp.Header.Get("Retry-After") == "" {
		t.Errorf("healthz after close: %+v Retry-After=%q", hz, resp.Header.Get("Retry-After"))
	}
}

// TestPprofGate: the profiling endpoints exist only when enabled.
func TestPprofGate(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	if code, _ := fetchBytes(t, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof on default server = %d, want 404", code)
	}
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 1, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	defer func() {
		ts2.Close()
		s.Close()
	}()
	code, body := fetchBytes(t, ts2.URL+"/debug/pprof/")
	if code != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index = %d, body %d bytes", code, len(body))
	}
}
