// Package service exposes the simulator as a long-running HTTP service:
// submit replay jobs, poll their status, stream per-job progress as NDJSON,
// fetch results and artifacts, scrape service metrics. Paper artifacts are
// rendered by cmd/experiments, not here: a sweep through the daemon is many
// replay jobs, which fork the shared aging checkpoints.
// It composes the three layers the acrossd daemon is built from:
//
//   - internal/jobs: a bounded worker pool with priority FIFO queueing,
//     per-job timeouts, transient-failure retry, and graceful drain;
//   - internal/store: a content-addressed on-disk result store, so a job
//     submitted twice runs once and completed results survive restarts;
//   - internal/obs: the Sampler feeds each replay's progress stream and
//     PromText renders /metrics.
//
// The Server is the one job registry: it names jobs, maps content keys to
// records, decides which earlier record may answer a submission, and counts
// outcomes. The pool below it only runs what it is given.
//
// API (all JSON):
//
//	POST   /api/v1/jobs                       submit {"type":"replay",...}
//	GET    /api/v1/jobs                       list jobs
//	GET    /api/v1/jobs/{id}                  job status
//	POST   /api/v1/jobs/{id}/cancel           cancel (also DELETE /api/v1/jobs/{id})
//	GET    /api/v1/jobs/{id}/result           result document (once succeeded)
//	GET    /api/v1/jobs/{id}/progress         NDJSON stream of metric samples (live + history)
//	GET    /api/v1/jobs/{id}/artifacts/metrics stored sample series (NDJSON)
//	GET    /api/v1/jobs/{id}/trace            per-job span log as Chrome trace_event JSON
//	GET    /api/v1/store                      stored result keys
//	GET    /metrics                           Prometheus text exposition (counters, scheduler, store)
//	GET    /healthz                           liveness + occupancy (Retry-After when saturated)
//
// With Config.EnablePprof the net/http/pprof profiling endpoints are also
// mounted under /debug/pprof/.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"across/internal/jobs"
	"across/internal/obs"
	"across/internal/runspec"
	"across/internal/sim"
	"across/internal/snapshot"
	"across/internal/ssdconf"
	"across/internal/store"
)

// Config sizes the service.
type Config struct {
	// StoreDir roots the content-addressed result store.
	StoreDir string
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueCap bounds queued jobs (default 1024).
	QueueCap int
	// DefaultTimeout bounds each job unless its spec overrides (0 = none).
	DefaultTimeout time.Duration
	// Retries and Backoff configure transient-failure retry (store writes).
	Retries int
	Backoff time.Duration
	// SampleIntervalMs is the progress-sampling interval in simulated ms
	// (default 50).
	SampleIntervalMs float64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default because the profiling endpoints expose process internals.
	EnablePprof bool
}

// jobRecord is the service-level view of one submission.
type jobRecord struct {
	id   string
	key  string
	spec json.RawMessage

	job    *jobs.Job    // nil for cache-served records
	cached bool         // served from the store without running
	hub    *progressHub // nil for cache-served records
	spans  *spanLog     // nil for cache-served records

	submitted time.Time
}

// Server is the HTTP simulation service.
type Server struct {
	cfg   Config
	sched *jobs.Scheduler
	store *store.Store

	regMu  sync.Mutex
	counts map[string]int64 // the counter series /metrics renders, by name

	// mu guards the job registry: every record by id, the latest record
	// per content key, and submission order.
	mu      sync.Mutex
	records map[string]*jobRecord
	byKey   map[string]*jobRecord
	order   []string
	nextID  uint64

	// flightMu guards aging: one lock per aging-checkpoint key, so
	// concurrent jobs that share a warm state age it exactly once, open
	// its stored snapshot exactly once, and the rest fork from the open
	// checkpoint (see runspec.Spec.AgingKey and warmStart).
	flightMu    sync.Mutex
	aging       map[string]*sync.Mutex
	checkpoints *checkpointCache
}

// New builds a Server (opening or creating its store) and starts its worker
// pool.
func New(cfg Config) (*Server, error) {
	if cfg.SampleIntervalMs <= 0 {
		cfg.SampleIntervalMs = 50
	}
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		sched: jobs.New(jobs.Options{
			Workers:        cfg.Workers,
			QueueCap:       cfg.QueueCap,
			DefaultTimeout: cfg.DefaultTimeout,
			Retries:        cfg.Retries,
			Backoff:        cfg.Backoff,
		}),
		store:   st,
		counts:  make(map[string]int64, len(metricHelp)),
		records: make(map[string]*jobRecord),
		byKey:   make(map[string]*jobRecord),
		aging:   make(map[string]*sync.Mutex),

		checkpoints: newCheckpointCache(checkpointBudget),
	}
	// Pre-register so /metrics always shows every series, zeroed.
	for name := range metricHelp {
		s.counts[name] = 0
	}
	return s, nil
}

// agingFlight serialises work on one aging-checkpoint key and returns the
// release function. Per-key mutexes live for the server's lifetime; the
// key space is one entry per distinct (scheme, config, aging) tuple, so
// the map stays small.
func (s *Server) agingFlight(key string) func() {
	s.flightMu.Lock()
	m, ok := s.aging[key]
	if !ok {
		m = &sync.Mutex{}
		s.aging[key] = m
	}
	s.flightMu.Unlock()
	m.Lock()
	return m.Unlock
}

// loadAgingSnapshot fetches a stored warm-state checkpoint, or nil when the
// key is absent or the entry is not a usable snapshot for the scheme.
func (s *Server) loadAgingSnapshot(key, scheme string) []byte {
	var e SnapshotEntry
	ok, err := s.store.Get(key, &e)
	if err != nil || !ok {
		return nil
	}
	if e.Kind != "snapshot" || e.Scheme != scheme || len(e.Blob) == 0 {
		return nil
	}
	return e.Blob
}

// warmStart resolves a job's aging phase under the key's flight lock, which
// it holds only for the work that must happen once per key, and returns the
// checkpoint the job forks outside the lock, so jobs sharing a key fork
// concurrently. With a usable checkpoint — cached, or opened from the store
// and then cached — it opens the job's "restore" span, marked
// checkpoint=cached or checkpoint=opened (with the blob's and its body's
// size: why that job's restore was the slow one), and counts the job's
// forks. With none — or with a stored one that does not open, which that span
// and a counter say, with the reason — it ages a fresh device, stores its
// snapshot over the unusable one, and returns the aged runner's in-memory
// checkpoint, uncached: later jobs open the stored blob.
func (s *Server) warmStart(ctx context.Context, akey string, sp *runspec.Spec, conf ssdconf.Config, spl *spanLog) (*sim.Checkpoint, error) {
	defer s.agingFlight(akey)()
	kind := sim.SchemeKind(sp.Scheme)
	cp := s.checkpoints.get(akey)
	if cp != nil {
		spl.next("restore")
		spl.attr("checkpoint", "cached")
	} else if warm := s.loadAgingSnapshot(akey, sp.Scheme); warm != nil {
		// The job that opens the blob is the slow one, and says so.
		spl.next("restore")
		spl.attr("blob_bytes", strconv.Itoa(len(warm)), "body_bytes", strconv.FormatInt(snapshot.BodyLen(warm), 10))
		var unusable string
		if cp, unusable = s.openCheckpoint(akey, warm, kind, conf); cp != nil {
			spl.attr("checkpoint", "opened")
		} else {
			// Not fatal and not cached: a checkpoint is a cache of what
			// ageing computes, so the job falls back to ageing.
			spl.attr("checkpoint", "unusable", "reason", unusable)
			s.counter("snapshot_unusable", 1)
		}
	}
	if cp != nil {
		forks := 1
		if sp.Fleet != nil {
			forks = sp.Fleet.Devices
		}
		s.counter("snapshot_restores", int64(forks))
		return cp, nil
	}
	spl.next("age")
	r, err := sim.NewRunner(kind, conf)
	if err != nil {
		return nil, err
	}
	if err := r.AgeCtx(ctx, sim.DefaultAging()); err != nil {
		return nil, err
	}
	s.counter("snapshot_ages", 1)
	// A snapshot or store failure costs only reuse: this job has its aged
	// device in hand, later jobs just re-age.
	if blob, err := r.Snapshot(); err == nil {
		_ = s.store.Put(akey, &SnapshotEntry{Key: akey, Kind: "snapshot", Scheme: sp.Scheme, Blob: blob})
	}
	return r.Checkpoint()
}

// openCheckpoint verifies a checkpoint blob and caches it under its aging
// key, or returns nil and why it is unusable: "version" for a container of
// another format version, "corrupt" for any other blob that does not open,
// "drift" for a checkpoint of another scheme or configuration.
func (s *Server) openCheckpoint(akey string, blob []byte, kind sim.SchemeKind, conf ssdconf.Config) (*sim.Checkpoint, string) {
	cp, err := sim.OpenCheckpoint(blob)
	switch {
	case errors.Is(err, snapshot.ErrVersion):
		return nil, "version"
	case err != nil:
		return nil, "corrupt"
	case cp.Kind != kind || cp.Conf != conf:
		return nil, "drift"
	}
	s.counter("snapshot_opens", 1)
	s.checkpoints.put(akey, cp)
	return cp, ""
}

// Store returns the server's result store.
func (s *Server) Store() *store.Store { return s.store }

// Drain stops accepting jobs and waits (bounded by ctx) for outstanding
// ones to finish.
func (s *Server) Drain(ctx context.Context) error {
	return s.sched.Drain(ctx)
}

// Close cancels outstanding jobs and stops the pool.
func (s *Server) Close() { s.sched.Close() }

func (s *Server) counter(name string, delta int64) {
	s.regMu.Lock()
	s.counts[name] += delta
	s.regMu.Unlock()
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/metrics", s.handleMetricsArtifact)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /api/v1/store", s.handleStoreKeys)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// jobStatus is the wire representation of a job.
type jobStatus struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`

	Attempts    int     `json:"attempts,omitempty"`
	SubmittedAt string  `json:"submitted_at,omitempty"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	DurationMs  float64 `json:"duration_ms,omitempty"`

	Spec  json.RawMessage `json:"spec,omitempty"`
	Spans []Span          `json:"spans,omitempty"`
}

func (s *Server) status(rec *jobRecord) jobStatus {
	st := jobStatus{
		ID:          rec.id,
		Key:         rec.key,
		Kind:        "replay",
		Cached:      rec.cached,
		Spec:        rec.spec,
		SubmittedAt: rec.submitted.UTC().Format(time.RFC3339Nano),
	}
	if rec.spans != nil {
		st.Spans = rec.spans.Spans()
	}
	if rec.cached {
		st.State = string(jobs.StateSucceeded)
		return st
	}
	j := rec.job
	st.State = string(j.State())
	st.Attempts = j.Attempts()
	if _, err := j.Result(); err != nil {
		st.Error = err.Error()
	}
	started, finished := j.Times()
	if !started.IsZero() {
		st.StartedAt = started.UTC().Format(time.RFC3339Nano)
	}
	if !finished.IsZero() {
		st.FinishedAt = finished.UTC().Format(time.RFC3339Nano)
		if !started.IsZero() {
			st.DurationMs = float64(finished.Sub(started)) / float64(time.Millisecond)
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a replay spec, deduplicates against live jobs and the
// store, and queues a new job when neither hits. The type is read before
// anything else, so a body of another type is refused by name before its
// fields are parsed.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		writeError(w, http.StatusBadRequest, "parsing spec: %v", err)
		return
	}
	if head.Type != "replay" {
		writeError(w, http.StatusBadRequest, "unknown job type %q (want replay)", head.Type)
		return
	}
	var sp runspec.Spec
	if err := strictUnmarshal(body, &sp); err != nil {
		writeError(w, http.StatusBadRequest, "parsing replay spec: %v", err)
		return
	}
	sp.Normalise()
	var once runspec.ScenarioOnce // validate and Key read a trace_path once between them
	if err := sp.ValidateOnce(&once); err != nil {
		writeError(w, http.StatusBadRequest, "invalid replay spec: %v", err)
		return
	}
	key, err := sp.KeyOnce(&once)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "keying spec: %v", err)
		return
	}

	s.mu.Lock()
	// Dedup against a live (or completed-in-memory) record first.
	if prev, ok := s.byKey[key]; ok && s.servable(prev) {
		st := s.status(prev)
		st.Deduped = true
		s.mu.Unlock()
		s.counter("jobs_deduped", 1)
		writeJSON(w, http.StatusOK, st)
		return
	}
	// Then against the store: identical work already completed — possibly
	// by a previous daemon process — is served without running.
	if s.store.Has(key) {
		rec := s.newRecordLocked(key, body, nil, nil, nil)
		rec.cached = true
		st := s.status(rec)
		s.mu.Unlock()
		s.counter("jobs_cached", 1)
		writeJSON(w, http.StatusOK, st)
		return
	}

	// The job keeps the trace file's hash, not once's parsed requests: it
	// re-reads the file itself, and must find the bytes its key names.
	traceSHA := once.TraceSHA()
	hub, spl := &progressHub{}, newSpanLog(time.Now())
	job, err := s.sched.Submit(jobs.SubmitOpts{
		Priority: sp.Priority,
		Timeout:  time.Duration(sp.TimeoutMs) * time.Millisecond,
	}, func(ctx context.Context) (any, error) {
		return s.runReplay(ctx, key, sp, traceSHA, hub, spl)
	})
	if err != nil {
		s.mu.Unlock()
		code := http.StatusServiceUnavailable
		if errors.Is(err, jobs.ErrQueueFull) {
			code = http.StatusTooManyRequests
		}
		writeError(w, code, "%v", err)
		return
	}
	rec := s.newRecordLocked(key, body, job, hub, spl)
	st := s.status(rec)
	s.mu.Unlock()

	s.counter("jobs_submitted", 1)
	go s.watch(rec)
	writeJSON(w, http.StatusAccepted, st)
}

// servable reports whether an earlier record can still answer for its key:
// a job that has not failed or been cancelled, or a cache-served record
// whose entry is still in the store (store.Get quarantines an undecodable
// one, after which the work must run again).
func (s *Server) servable(rec *jobRecord) bool {
	if rec.job == nil {
		return s.store.Has(rec.key)
	}
	st := rec.job.State()
	return st != jobs.StateFailed && st != jobs.StateCancelled
}

// strictUnmarshal rejects unknown fields so spec typos fail loudly instead
// of silently running a default job.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// newRecordLocked registers a record; caller holds s.mu.
func (s *Server) newRecordLocked(key string, spec []byte, job *jobs.Job, hub *progressHub, spl *spanLog) *jobRecord {
	s.nextID++
	rec := &jobRecord{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		key:       key,
		spec:      json.RawMessage(spec),
		job:       job,
		hub:       hub,
		spans:     spl,
		submitted: time.Now(),
	}
	s.records[rec.id] = rec
	s.byKey[key] = rec
	s.order = append(s.order, rec.id)
	return rec
}

// watch finalises a record when its job finishes: counters tick over and
// the progress hub closes so every stream ends — including jobs cancelled
// while still queued, whose run function never executed.
func (s *Server) watch(rec *jobRecord) {
	<-rec.job.Done()
	switch rec.job.State() {
	case jobs.StateSucceeded:
		s.counter("jobs_succeeded", 1)
	case jobs.StateFailed:
		s.counter("jobs_failed", 1)
	case jobs.StateCancelled:
		s.counter("jobs_cancelled", 1)
	}
	if rec.hub != nil {
		rec.hub.Close()
	}
}

func (s *Server) record(id string) *jobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.status(s.records[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	st := s.status(rec)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if rec.job == nil {
		writeError(w, http.StatusConflict, "job %s was served from the store; nothing to cancel", rec.id)
		return
	}
	cancelled := rec.job.Cancel()
	s.mu.Lock()
	st := s.status(rec)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": cancelled, "job": st})
}

// entry loads a record's stored Entry, preferring the in-memory job result
// (identical content, no disk round trip).
func (s *Server) entry(rec *jobRecord) (*Entry, error) {
	if rec.job != nil {
		if res, err := rec.job.Result(); err == nil && res != nil {
			if e, ok := res.(*Entry); ok {
				return e, nil
			}
		}
	}
	var e Entry
	ok, err := s.store.Get(rec.key, &e)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return &e, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if rec.job != nil {
		switch st := rec.job.State(); st {
		case jobs.StateSucceeded:
		case jobs.StateFailed, jobs.StateCancelled:
			_, err := rec.job.Result()
			writeError(w, http.StatusConflict, "job %s %s: %v", rec.id, st, err)
			return
		default:
			writeError(w, http.StatusConflict, "job %s is %s; result not ready", rec.id, st)
			return
		}
	}
	e, err := s.entry(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "loading result: %v", err)
		return
	}
	if e == nil {
		writeError(w, http.StatusNotFound, "no stored result for job %s", rec.id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     rec.id,
		"key":    rec.key,
		"kind":   e.Kind,
		"cached": rec.cached,
		"result": e.Result,
	})
}

// maxSeriesBytes bounds the sibling serveSeries will read into memory; a
// full-length Table 2 replay (100 x the 431 samples of a scale-0.01 job)
// stores about 18 MB.
const maxSeriesBytes = 1 << 30

// serveSeries writes a record's stored sample series to w as NDJSON and
// reports whether it had one. The entry is the commit point, so a series whose
// entry is absent stays unreachable; the entries of fleet jobs and of older
// releases (inline series, experiment jobs) have no sibling. A sibling that
// does not decode is a lost series, never a partial one and never a reason
// to distrust the entry: it is counted and served as absent.
func (s *Server) serveSeries(w http.ResponseWriter, rec *jobRecord) bool {
	if !s.store.Has(rec.key) {
		return false
	}
	f, err := s.store.OpenSibling(rec.key, samplesExt)
	if err != nil {
		return false
	}
	defer f.Close()
	// Cut short by the bound, a sibling fails its checksum like any torn one.
	blob, err := io.ReadAll(io.LimitReader(f, maxSeriesBytes))
	var samples []obs.Sample
	if err == nil {
		samples, err = obs.DecodeSeries(blob)
	}
	if err != nil {
		s.counter("series_unreadable", 1)
		return false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	obs.WriteNDJSON(w, samples)
	return true
}

// handleProgress streams a job's metric samples as NDJSON: the series so
// far, then each sample as it is taken, until the job finishes. For a
// succeeded (or cache-served) job the stored series is formatted and the
// stream ends.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if !rec.hub.subscribe() {
		s.serveSeries(w, rec)
		return
	}
	defer rec.hub.unsubscribe()
	flusher, _ := w.(http.Flusher)
	for sent := 0; ; {
		series, changed := rec.hub.next()
		if obs.WriteNDJSON(w, series[sent:]) != nil {
			return
		}
		sent = len(series)
		if flusher != nil {
			flusher.Flush()
		}
		if changed == nil {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetricsArtifact(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !s.serveSeries(w, rec) {
		writeError(w, http.StatusNotFound, "no stored artifact for job %s", rec.id)
	}
}

func (s *Server) handleStoreKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.Keys()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"keys": keys, "count": len(keys)})
}

// metricHelp names and documents the counter series on the /metrics page;
// New registers each of them at zero.
var metricHelp = map[string]string{
	"jobs_submitted":    "Jobs accepted and queued for execution.",
	"jobs_deduped":      "Submissions answered by a live job with the same content key.",
	"jobs_cached":       "Submissions served from the result store without running.",
	"jobs_succeeded":    "Jobs that finished successfully.",
	"jobs_failed":       "Jobs that exhausted their retries and failed.",
	"jobs_cancelled":    "Jobs cancelled before completion.",
	"snapshot_ages":     "Aging runs executed and checkpointed (one per aging key).",
	"snapshot_opens":    "Checkpoint blobs verified, audited and opened for forking.",
	"snapshot_unusable": "Stored checkpoints that did not open (another format version, corrupt, or another device) and were re-aged over.",
	"snapshot_restores": "Replay jobs forked from a stored aging checkpoint.",
	"series_unreadable": "Fetches of a stored sample series that did not decode and were answered as if it were absent.",
}

// handleMetrics renders the service metrics in Prometheus text exposition
// format 0.0.4: every counter series (suffixed _total) in sorted name order
// so scrapes diff cleanly, then scheduler occupancy and store size as
// gauges, all under the acrossd_ namespace.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := obs.NewPromText()
	s.regMu.Lock()
	counts := maps.Clone(s.counts)
	s.regMu.Unlock()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.Counter("acrossd_"+n, metricHelp[n], float64(counts[n]))
	}
	st := s.sched.Stats()
	p.Gauge("acrossd_scheduler_queued", "Jobs queued but not yet running.", float64(st.Queued))
	p.Gauge("acrossd_scheduler_queue_cap", "Queue capacity; submissions beyond it are rejected.", float64(st.QueueCap))
	p.Gauge("acrossd_scheduler_running", "Jobs currently executing.", float64(st.Running))
	p.Gauge("acrossd_scheduler_workers", "Worker-pool size bounding concurrent jobs.", float64(st.Workers))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	p.Gauge("acrossd_scheduler_draining", "1 while the scheduler is draining and rejecting submissions.", draining)
	p.Gauge("acrossd_store_entries", "Entries in the content-addressed result store.", float64(s.store.Len()))
	p.Counter("acrossd_store_bytes_written", "Bytes this process committed to the store: entries, checkpoints and series siblings.", float64(s.store.BytesWritten()))
	hits, evictions, held := s.checkpoints.stats()
	p.Counter("acrossd_checkpoint_cache_hits", "Aged jobs that forked a checkpoint already open in memory.", float64(hits))
	p.Counter("acrossd_checkpoint_cache_evictions", "Open checkpoints dropped, least recently forked first, to hold the cache's byte budget.", float64(evictions))
	p.Gauge("acrossd_checkpoint_cache_bytes", "Bytes of state the open checkpoints retain; each fork copies its checkpoint's share.", float64(held))
	if err := p.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(w)
}

// healthz is the wire shape of /healthz: liveness plus enough occupancy to
// steer a load balancer — queue depth against capacity and running jobs
// against workers. Saturated means new submissions would be rejected right now
// (queue full or draining); the response then carries a Retry-After hint.
type healthz struct {
	Status    string  `json:"status"` // ok | saturated | draining
	Queued    int     `json:"queued"`
	QueueCap  int     `json:"queue_cap"`
	QueueFill float64 `json:"queue_fill"`
	Running   int     `json:"running"`
	Workers   int     `json:"workers"`
	Saturated bool    `json:"saturated"`
	Draining  bool    `json:"draining"`
}

// healthzRetryAfterSeconds is the backoff hint sent with a saturated or
// draining health response.
const healthzRetryAfterSeconds = "5"

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	h := healthz{
		Status:   "ok",
		Queued:   st.Queued,
		QueueCap: st.QueueCap,
		Running:  st.Running,
		Workers:  st.Workers,
		Draining: st.Draining,
	}
	if st.QueueCap > 0 {
		h.QueueFill = float64(st.Queued) / float64(st.QueueCap)
	}
	h.Saturated = st.Queued >= st.QueueCap || st.Draining
	switch {
	case st.Draining:
		h.Status = "draining"
	case h.Saturated:
		h.Status = "saturated"
	}
	if h.Saturated {
		w.Header().Set("Retry-After", healthzRetryAfterSeconds)
	}
	writeJSON(w, http.StatusOK, h)
}

// handleJobTrace renders a replay job's span log as a Chrome trace_event
// document, loadable in Perfetto alongside the simulated-timeline trace the
// replay itself can emit.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if rec.spans == nil {
		writeError(w, http.StatusConflict, "job %s has no span log (served from the store)", rec.id)
		return
	}
	writeChromeSpans(w, rec.id, rec.spans.Spans())
}
