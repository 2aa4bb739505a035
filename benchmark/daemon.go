package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"across/internal/service"
	"across/internal/sim"
	"across/internal/store"
	"across/internal/workload"
)

// pollInterval is the sweep script's status-poll period.
const pollInterval = 2 * time.Millisecond

// daemonJobs drives acrossd end to end over real loopback HTTP with one
// closed-loop client (a sweep script waits for each reply). A pass is one
// sweep: a server freshly opened on the store directory is pushed one block
// of distinct aged replay specs (every scheme × profile, at seeds no earlier
// pass used), each submit → status polls → result fetch. The server keeps
// every finished job's entry in memory, so its heap, and with it the cost of
// a job, depends on how many jobs it has served; a server per pass makes
// every pass start from the same state whatever the host's speed. After the
// passes one more server is opened on the same store and every spec
// resubmitted.
type daemonJobs struct {
	kinds    []sim.SchemeKind
	profiles []workload.Profile
	scale    float64
	seed     int64

	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	aged   []jobRun // the warm-up jobs of the last set-up, one per scheme

	cold   []jobRun
	stored []jobRun
	// Checkpoint counters of /metrics, summed over the servers of the last
	// set-up and of every pass.
	ages, restores float64
}

// jobRun is one job as its client saw it.
type jobRun struct {
	index     int
	totalMs   float64 // submit → result body fetched
	submitMs  float64
	fetchMs   float64
	result    []byte // the "result" member of the result document
	key       string
	phasesMs  map[string]float64 // the daemon's own span log
	engine    string
	requests  int64
	avgWrite  float64
	erases    int64
	startedAt time.Time
}

func runDaemonJobs(b *bench) (err error) {
	d := &daemonJobs{
		kinds:    sim.Kinds(),
		profiles: workload.LunProfiles(),
		// A job's stored entry grows with its trace (0.46 MB here, 2.3 MB at
		// scale 0.05). A sweep of the larger ones writes 10 MB/s, more than a
		// throttled cloud disk sustains: store.Put's file write then swings
		// between 1 and 60 ms and the run's median job with it.
		scale:  0.01,
		seed:   b.opt.seed * 1_000_000,
		client: &http.Client{Timeout: time.Minute},
	}
	if b.opt.quick {
		d.scale, d.profiles = 0.002, d.profiles[:2]
	}
	defer func() {
		d.stop()
		if d.dir != "" {
			if rerr := os.RemoveAll(filepath.Dir(d.dir)); err == nil {
				err = rerr
			}
		}
	}()
	if err := b.setup(func() error { return d.setup(b) }); err != nil {
		return err
	}
	b.rep.Sizes["loop"] = "closed, 1 client, 2 ms status polls"
	b.rep.Sizes["clients"] = 1
	b.rep.Sizes["cells_per_pass"] = d.block()
	b.rep.Sizes["job_scale"] = d.scale

	pass := func(int) error { return d.pass(b) }
	untraced := 0 // jobs of a traced run's untraced passes
	if b.opt.trace {
		passes, err := b.tracedPasses(pass)
		if err != nil {
			return err
		}
		untraced = passes * d.block()
	} else if _, err := b.passes(0.75*b.opt.seconds, b.minPasses(), pass); err != nil {
		return err
	}

	// One more server on the same store: the stored phase is served from
	// disk, not from a live-job table. It takes the last quarter of the run.
	if err := d.restart(); err != nil {
		return err
	}
	entries := d.srv.Store().Len()
	for _, c := range d.cold {
		run, err := d.runJob(b, c.index)
		if err != nil {
			return err
		}
		b.check(bytes.Equal(run.result, c.result), "job %d: stored result differs from the cold one", c.index)
		d.stored = append(d.stored, run)
	}
	b.rep.Sizes["jobs"] = len(d.cold)
	b.rep.Sizes["requests_per_scheme_per_pass"] = d.profiles[0].Scale(d.scale).Requests

	// The digest and the simulated ratios cover the first pass only: it
	// always runs, so they do not depend on how fast the host is.
	block := d.cold[:d.block()]
	for _, c := range block {
		b.digest.Write(c.result)
	}
	if !b.opt.trace {
		d.endToEnd(b, block)
		return nil
	}
	d.perLayer(b, untraced, entries)
	h := d.headline(block)
	b.set("sim.paper_gap_pp", h.paperGapPP())
	return d.storeProbe(b)
}

// tempDir makes a scratch directory under .bench_build in the working
// directory, so that nothing is written outside the checkout.
func tempDir(prefix string) (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// start opens a server on the store directory behind a loopback listener.
func (d *daemonJobs) start() error {
	srv, err := service.New(service.Config{StoreDir: d.dir})
	if err != nil {
		return err
	}
	d.srv, d.ts = srv, httptest.NewServer(srv.Handler())
	return nil
}

func (d *daemonJobs) stop() {
	if d.ts != nil {
		d.ts.Close()
		d.srv.Close()
		d.ts, d.srv = nil, nil
	}
}

// restart replaces the running server with a new one on the same store,
// after adding the old one's checkpoint counters to the tally.
func (d *daemonJobs) restart() error {
	metrics, err := d.get("/metrics")
	if err != nil {
		return err
	}
	d.ages += promValue(string(metrics), "acrossd_snapshot_ages_total")
	d.restores += promValue(string(metrics), "acrossd_snapshot_restores_total")
	d.stop()
	return d.start()
}

// block is the number of jobs of one pass: every scheme × profile.
func (d *daemonJobs) block() int { return len(d.kinds) * len(d.profiles) }

// setup starts a server on a fresh store and ages one checkpoint per scheme
// through the job path, so that every measured job forks from a checkpoint.
func (d *daemonJobs) setup(b *bench) error {
	d.stop()
	root, err := tempDir("daemon")
	if err != nil {
		return err
	}
	if d.dir != "" {
		if err := os.RemoveAll(filepath.Dir(d.dir)); err != nil {
			return err
		}
	}
	d.dir = filepath.Join(root, "store")
	if err := d.start(); err != nil {
		return err
	}
	d.aged, d.ages, d.restores = nil, 0, 0
	for k := range d.kinds {
		run, err := d.runJob(b, -1-k)
		if err != nil {
			return err
		}
		d.aged = append(d.aged, run)
	}
	return nil
}

// spec is job i's submit body. The scheme cycles fastest, then the profile,
// then the seed: each block of schemes × profiles replays the same traces
// on every scheme. Negative indices are the warm-up jobs.
func (d *daemonJobs) spec(i int) (body string, kind sim.SchemeKind, p workload.Profile) {
	seed := d.seed + 999_999
	if i < 0 {
		kind, p = d.kinds[-1-i], d.profiles[0]
	} else {
		kind = d.kinds[i%len(d.kinds)]
		p = d.profiles[i/len(d.kinds)%len(d.profiles)]
		seed = d.seed + int64(i/(len(d.kinds)*len(d.profiles)))
	}
	return fmt.Sprintf(`{"type":"replay","scheme":%q,"profile":%q,"scale":%g,"seed":%d,"age":true}`,
		kind, p.Name, d.scale, seed), kind, p
}

func (d *daemonJobs) cell(i int) string { return "job" + strconv.Itoa(i) }

// pass pushes one block of new jobs through a freshly opened server.
func (d *daemonJobs) pass(b *bench) error {
	if err := d.restart(); err != nil {
		return err
	}
	for n := d.block(); n > 0; n-- {
		run, err := d.runJob(b, len(d.cold))
		if err != nil {
			return err
		}
		d.cold = append(d.cold, run)
	}
	return nil
}

func (d *daemonJobs) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body, err
}

// jobStatus is what the client reads of a status document.
type jobStatus struct {
	ID    string         `json:"id"`
	Key   string         `json:"key"`
	State string         `json:"state"`
	Error string         `json:"error"`
	Spans []service.Span `json:"spans"`
}

// runJob drives one job through its client-visible lifecycle and checks its
// output: the job succeeds, its result decodes and carries the request
// count and scheme the spec asked for. An HTTP-level failure is an error of
// the benchmark, not a failed operation.
func (d *daemonJobs) runJob(b *bench, i int) (jobRun, error) {
	spec, kind, prof := d.spec(i)
	cell := d.cell(i)
	run := jobRun{index: i, startedAt: time.Now(), phasesMs: map[string]float64{}}
	endJob := b.span("service.job", cell)
	defer endJob()

	end := b.span("service.submit", cell)
	resp, err := d.client.Post(d.ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return run, err
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	end()
	if err != nil {
		return run, fmt.Errorf("job %d: decoding the submit reply: %w", i, err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("job %d: submit: HTTP %d: %s", i, resp.StatusCode, st.Error)
	}
	run.submitMs = ms(time.Since(run.startedAt))

	end = b.span("service.poll", cell)
	for st.State != "succeeded" {
		if st.State == "failed" || st.State == "cancelled" {
			end()
			b.check(false, "job %d %s: %s", i, st.State, st.Error)
			return run, fmt.Errorf("job %d %s: %s", i, st.State, st.Error)
		}
		time.Sleep(pollInterval)
		body, err := d.get("/api/v1/jobs/" + st.ID)
		if err != nil {
			return run, err
		}
		st = jobStatus{}
		if err := json.Unmarshal(body, &st); err != nil {
			return run, fmt.Errorf("job %d: decoding its status: %w", i, err)
		}
	}
	// The daemon's own span log becomes child spans of the poll span, named
	// after the layer each phase runs in.
	for _, sp := range st.Spans {
		run.phasesMs[sp.Name] = sp.EndMs - sp.StartMs
		if sp.Name == "replay" {
			run.engine = sp.Attrs["engine"]
		}
		if b.spans != nil {
			at := func(ms float64) time.Time { return run.startedAt.Add(time.Duration(ms * float64(time.Millisecond))) }
			b.spans.add(phaseSpan[sp.Name], cell, at(sp.StartMs), at(sp.EndMs))
		}
	}
	end()
	run.key = st.Key

	end = b.span("service.fetch", cell)
	fetchStart := time.Now()
	body, err := d.get("/api/v1/jobs/" + st.ID + "/result")
	end()
	if err != nil {
		return run, err
	}
	run.fetchMs = ms(time.Since(fetchStart))
	run.totalMs = ms(time.Since(run.startedAt))

	var doc struct {
		Result json.RawMessage `json:"result"`
	}
	var res service.ReplayResult
	err = json.Unmarshal(body, &doc)
	if err == nil {
		err = json.Unmarshal(doc.Result, &res)
	}
	want := int64(prof.Scale(d.scale).Requests)
	b.check(err == nil && res.Requests == want && res.Scheme == string(kind),
		"job %d: result has %d requests on %q, want %d on %q (decode error: %v)", i, res.Requests, res.Scheme, want, kind, err)
	run.result, run.requests = doc.Result, res.Requests
	run.avgWrite, run.erases = res.AvgWriteMs, res.Counters.Erases
	return run, nil
}

// phaseSpan names the benchmark span each phase of the daemon's span log
// becomes: the layer the phase runs in, then the operation.
var phaseSpan = map[string]string{
	"queued":   "service.queued",
	"generate": "workload.generate",
	"age":      "sim.age",
	"restore":  "snapshot.restore",
	"replay":   "sim.replay",
	"store":    "store.put",
}

// byScheme groups a per-job sample by scheme: the jobs of one scheme are
// the repetitions (with further profiles and seeds) of one cell.
func (d *daemonJobs) byScheme(runs []jobRun, sample func(jobRun) float64) [][]float64 {
	cells := make([][]float64, len(d.kinds))
	for _, r := range runs {
		ki := r.index % len(d.kinds)
		cells[ki] = append(cells[ki], sample(r))
	}
	return cells
}

func (d *daemonJobs) endToEnd(b *bench, block []jobRun) {
	// The jobs of one scheme are one cell's samples. They differ in length,
	// so the replay phase is sampled per request.
	replay := d.byScheme(d.cold, func(r jobRun) float64 { return r.phasesMs["replay"] / 1000 / float64(r.requests) })
	wall := d.byScheme(d.cold, func(r jobRun) float64 { return r.totalMs / 1000 })
	b.setHostTimes(replay, wall, float64(len(d.kinds)), len(d.cold)/len(d.kinds))
	h := d.headline(block)
	h.setEndToEnd(b)
}

// headline reads the first seed block's results: job i of the block ran
// scheme i mod kinds on profile i div kinds.
func (d *daemonJobs) headline(block []jobRun) headline {
	f, m, a := slices.Index(d.kinds, sim.KindFTL), slices.Index(d.kinds, sim.KindMRSM), slices.Index(d.kinds, sim.KindAcross)
	var h headline
	for p := 0; p+len(d.kinds) <= len(block); p += len(d.kinds) {
		h.add(block[p+f].avgWrite, block[p+a].avgWrite, block[p+f].erases, block[p+m].erases, block[p+a].erases)
	}
	return h
}

// perLayer reports the service, jobs, store and snapshot metrics of the
// untraced cold jobs, the stored phase and the warm-up jobs.
func (d *daemonJobs) perLayer(b *bench, untraced, entries int) {
	cold := d.cold[:untraced]
	sample := func(runs []jobRun, f func(jobRun) float64) []float64 {
		out := make([]float64, 0, len(runs))
		for _, r := range runs {
			out = append(out, f(r))
		}
		return out
	}
	total := func(r jobRun) float64 { return r.totalMs }
	for _, phase := range []string{"queued", "generate", "restore", "replay", "store"} {
		b.set("service.phase_ms."+phase, median(sample(cold, func(r jobRun) float64 { return r.phasesMs[phase] })))
	}
	b.set("service.phase_ms.age", median(sample(d.aged, func(r jobRun) float64 { return r.phasesMs["age"] })))
	b.set("service.submit_ms", median(sample(cold, func(r jobRun) float64 { return r.submitMs })))
	b.set("service.result_fetch_ms", median(sample(cold, func(r jobRun) float64 { return r.fetchMs })))
	b.set("service.result_bytes", median(sample(cold, func(r jobRun) float64 { return float64(len(r.result)) })))
	b.set("service.job_cold_p50_ms", median(sample(cold, total)))
	b.set("service.job_cold_p95_ms", quantile(sample(cold, total), 0.95))
	b.set("service.job_stored_p50_ms", median(sample(d.stored, total)))
	b.set("service.job_stored_p95_ms", quantile(sample(d.stored, total), 0.95))
	// One closed-loop client: throughput is the reciprocal of mean latency.
	b.set("service.jobs_per_s", 1000/mean(sample(cold, total)))
	b.set("service.jobs_aged", d.ages)
	b.set("service.jobs_restored", d.restores)
	parallel := 0
	for _, r := range d.cold {
		if r.engine == "parallel" {
			parallel++
		}
	}
	b.set("service.jobs_parallel_engine", float64(parallel))
	b.set("store.entries", float64(entries))
	for ki, kind := range d.kinds {
		var restore []float64
		for _, r := range cold {
			if r.index%len(d.kinds) == ki {
				restore = append(restore, r.phasesMs["restore"])
			}
		}
		sfx := "." + schemeSuffix[kind]
		b.set("snapshot.restore_ms"+sfx, median(restore))
		b.set("sim.age_ms"+sfx, d.aged[ki].phasesMs["age"])
		b.set("snapshot.restore_vs_age"+sfx, median(restore)/d.aged[ki].phasesMs["age"])
	}
}

// promValue reads one series of a Prometheus text exposition.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

func mean(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quantile reads the q-quantile of unsorted samples (nearest rank).
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// storeProbe times internal/store alone: Put and Get of one captured result
// entry, on a store of its own.
func (d *daemonJobs) storeProbe(b *bench) error {
	var entry service.Entry
	ok, err := d.srv.Store().Get(d.cold[0].key, &entry)
	if err != nil || !ok {
		return fmt.Errorf("store probe: reading job 0's entry back: found=%v err=%v", ok, err)
	}
	encoded, err := json.Marshal(&entry)
	if err != nil {
		return err
	}
	b.set("store.entry_bytes", float64(len(encoded)))
	st, err := store.Open(filepath.Join(filepath.Dir(d.dir), "probe"))
	if err != nil {
		return err
	}
	const n = 20
	var put, get []float64
	for i := 0; i < n; i++ {
		key, err := store.HashJSON(i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.Put(key, &entry); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t0)))
		var back service.Entry
		t0 = time.Now()
		if _, err := st.Get(key, &back); err != nil {
			return err
		}
		get = append(get, ms(time.Since(t0)))
	}
	b.set("store.put_ms", median(put))
	b.set("store.get_ms", median(get))
	return nil
}
