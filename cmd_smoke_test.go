package across_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"across/internal/obs"
)

// runCmd go-runs one of the repository's commands from the module root and
// returns its stdout. Build or runtime failures include the command's
// combined output in the test log.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %s: %v\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestAcrosssimSmoke runs the simulator end to end — synthetic profile, aged
// device, verification enabled — and checks the report contains the expected
// sections, including a clean verify line.
func TestAcrosssimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out := runCmd(t, "./cmd/acrosssim",
		"-profile", "lun1", "-scale", "0.002", "-check", "-audit-every", "500")
	for _, want := range []string{"device :", "trace  :", "scheme :", "latency:", "writes :", "erases :", "verify : clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAcrosssimTraceArtifacts runs a traced, sampled replay through the CLI
// and reads both artifacts back: the Chrome trace must be one JSON document
// that holds events, and the metrics series one JSON object per line whose
// closing sample has counted requests. The series' bytes are pinned: the
// replay is deterministic, and one json.Encoder line per sample is the
// format every reader of a series gets.
func TestAcrosssimTraceArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "lun1.trace.json"), filepath.Join(dir, "lun1.metrics.jsonl")
	runCmd(t, "./cmd/acrosssim", "-profile", "lun1", "-scale", "0.005",
		"-trace-out", tracePath, "-metrics-out", metricsPath, "-metrics-interval-ms", "50")

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace holds no events")
	}

	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var sample struct {
		CumRequests int64 `json:"cum_requests"`
	}
	for i, line := range lines { // an empty series is one empty line, refused here
		sample.CumRequests = 0
		if err := json.Unmarshal([]byte(line), &sample); err != nil {
			t.Fatalf("metrics line %d is not a JSON object: %v", i+1, err)
		}
	}
	if sample.CumRequests <= 0 {
		t.Fatalf("the closing sample has %d requests", sample.CumRequests)
	}
	const wantSHA = "e85e9c8e19aa52b46af99054c093c0ee7a35cdb6631a9e72b1eadb6fa07a00ca"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != wantSHA {
		t.Errorf("metrics file hashes to %x, want %s", sum, wantSHA)
	}
	t.Logf("%d trace events, %d metric samples, final: %d requests", len(doc.TraceEvents), len(lines), sample.CumRequests)
}

// TestAcrosssimDFTLSmoke: the CLI accepts every scheme the daemon does, the
// extension DFTL included, and verifies it clean.
func TestAcrosssimDFTLSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out := runCmd(t, "./cmd/acrosssim", "-scheme", "DFTL", "-profile", "lun1", "-scale", "0.002", "-check")
	if !strings.Contains(out, "scheme : DFTL") || !strings.Contains(out, "verify : clean") {
		t.Errorf("DFTL run output wrong:\n%s", out)
	}
}

// TestAcrosssimScenarioSmoke drives the scenario engine through the CLI:
// generate a builtin scenario to a trace-v2 file, then replay the stored
// container with -scenario-in on another scheme — generation, encode, decode
// and replay exercised as a user would, with verification on. Generating
// the same scenario again seals the same container byte for byte, and a
// scenario replays through a fleet volume with every device audited clean.
func TestAcrosssimScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns acrosssim")
	}
	dir := t.TempDir()
	run := buildAcrosssim(t, dir)
	out := run("-scenario", "burst", "-scale", "0.002", "-scenario-out", "burst.axt2", "-check")
	for _, want := range []string{"scenario: burst", "cohort:", "tracev2 :", "verify : clean"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario run output missing %q:\n%s", want, out)
		}
	}
	replayed := run("-scenario-in", "burst.axt2", "-scheme", "FTL", "-check")
	if !strings.Contains(replayed, "scenario: burst") || !strings.Contains(replayed, "verify : clean") {
		t.Errorf("trace-v2 replay output wrong:\n%s", replayed)
	}

	run("-scenario", "mixed", "-scale", "0.002", "-scenario-out", "mixed.axt2")
	if out := run("-scenario-in", "mixed.axt2"); !strings.Contains(out, "scenario: mixed") {
		t.Errorf("stored mixed stream did not replay as mixed:\n%s", out)
	}
	run("-scenario", "mixed", "-scale", "0.002", "-scenario-out", "mixed2.axt2")
	a, err := os.ReadFile(filepath.Join(dir, "mixed.axt2"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "mixed2.axt2"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("generating mixed twice sealed two different trace-v2 containers")
	}

	out = run("-scenario", "mixed", "-scale", "0.002", "-fleet", "2", "-layout", "raid0", "-check")
	if !strings.Contains(out, "verify : clean — all 2 devices audited") {
		t.Errorf("scenario fleet replay did not verify clean:\n%s", out)
	}
}

// TestAcrosssimMSRScenarioSmoke wires the MSR Cambridge fixture through the
// CLI's scenario path (the real-trace cohort input).
func TestAcrosssimMSRScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out := runCmd(t, "./cmd/acrosssim",
		"-scenario", "trace", "-trace", "internal/trace/testdata/msr_sample.csv",
		"-scale", "1", "-no-age", "-check")
	if !strings.Contains(out, "scenario: trace") || !strings.Contains(out, "verify : clean") {
		t.Errorf("MSR scenario output wrong:\n%s", out)
	}
}

// TestAcrosssimWorkersNeedFleet: acrosssim has no -workers flag, since a
// fleet replays its devices serially, so it refuses one as undefined with
// -fleet as well as without.
func TestAcrosssimWorkersNeedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	for _, mode := range [][]string{nil, {"-fleet", "2"}} {
		args := append([]string{"run", "./cmd/acrosssim", "-profile", "lun1", "-scale", "0.002", "-no-age"}, mode...)
		out, err := exec.Command("go", append(args, "-workers", "4")...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: -workers") {
			t.Errorf("-workers 4 %v: err=%v, output:\n%s", mode, err, out)
		}
	}
}

// TestAcrosssimRefusesARetiredSnapshotVersion: a snapshot is a cache, so one
// of an old format version is refused, single device and fleet alike — in one
// line that names the file, both versions and the way out — and so is one
// taken behind the retired host data cache, in a line that names the file
// and the host cache.
func TestAcrosssimRefusesARetiredSnapshotVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "acrosssim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/acrosssim").CombinedOutput(); err != nil {
		t.Fatalf("building acrosssim: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		file string
		says []string
	}{
		{"internal/sim/testdata/snapshot-v1/ftl.axsn", []string{"got 1", "support 3", "re-create it with -snapshot-out"}},
		{"internal/sim/testdata/snapshot-v3/across-hostcache.axsn", []string{"host cache"}},
	} {
		for _, mode := range [][]string{nil, {"-fleet", "2"}} {
			args := append([]string{"-snapshot-in", tc.file, "-profile", "lun1", "-scale", "0.002"}, mode...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			line, _, _ := strings.Cut(string(out), "\n")
			for _, want := range append([]string{tc.file}, tc.says...) {
				if err == nil || !strings.Contains(line, want) {
					t.Errorf("%s %v: err=%v, want a first line naming %q; output:\n%s", tc.file, mode, err, want, out)
				}
			}
		}
	}
}

// buildAcrosssim builds acrosssim once into dir and returns a runner for it
// that fails the test on a non-zero exit and returns stdout.
func buildAcrosssim(t *testing.T, dir string) func(args ...string) string {
	t.Helper()
	bin := filepath.Join(dir, "acrosssim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/acrosssim").CombinedOutput(); err != nil {
		t.Fatalf("building acrosssim: %v\n%s", err, out)
	}
	return func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("acrosssim %s: %v\nstdout:\n%s\nstderr:\n%s",
				strings.Join(args, " "), err, stdout.String(), stderr.String())
		}
		return stdout.String()
	}
}

// TestAcrosssimRefusesWhatAcrossdRefuses: acrosssim decodes its flags into
// the spec acrossd validates, so a scale outside (0,1] and two workloads at
// once are refused, -scale 0 is the omitted scale, and a trace file whose
// offsets run past the device folds into it as a daemon trace_path does.
func TestAcrosssimRefusesWhatAcrossdRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns acrosssim")
	}
	dir := t.TempDir()
	run := buildAcrosssim(t, dir)
	const msr = "internal/trace/testdata/msr_sample.csv"
	abs, err := filepath.Abs(msr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-profile", "lun1", "-scale", "5", "-no-age"}, "out of (0,1]"},
		{[]string{"-profile", "lun1", "-scale", "-1", "-no-age"}, "out of (0,1]"},
		{[]string{"-profile", "lun1", "-scenario", "burst", "-scale", "0.002", "-no-age"}, "mutually exclusive"},
		{[]string{"-trace", abs, "-profile", "lun1", "-no-age"}, "mutually exclusive"},
	} {
		out, err := exec.Command(filepath.Join(dir, "acrosssim"), tc.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: err=%v, want a refusal naming %q; output:\n%s", tc.args, err, tc.want, out)
		}
	}

	if zero, omitted := run("-profile", "lun1", "-scale", "0", "-no-age"), run("-profile", "lun1", "-no-age"); zero != omitted {
		t.Errorf("-scale 0 is not the omitted scale:\n%s\n---\n%s", zero, omitted)
	}

	csv := runCmd(t, "./cmd/tracegen", "-profile", "lun2", "-scale", "0.002", "-full")
	if err := os.WriteFile(filepath.Join(dir, "full.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run("-trace", "full.csv", "-no-age", "-check")
	if !strings.Contains(out, "scenario: trace, 1 cohorts") || !strings.Contains(out, "verify : clean") {
		t.Errorf("a full-device trace did not fold into the default device:\n%s", out)
	}
}

// TestAcrosssimFleet is the fleet mode end to end through the CLI (DESIGN.md
// §14): the same volume replayed twice prints byte-identical output, a
// checked replay audits every device, a single-device -snapshot-out blob is
// forked by every device of a larger volume, and sealing is deterministic —
// the same command writes the same container.
func TestAcrosssimFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns acrosssim")
	}
	dir := t.TempDir()
	run := buildAcrosssim(t, dir)
	for _, layout := range []string{"raid0", "raid10"} {
		args := []string{"-profile", "lun1", "-scale", "0.005", "-fleet", "4", "-layout", layout, "-chunk-kb", "16"}
		first, second := run(args...), run(args...)
		if first != second {
			t.Errorf("%s: two runs differ:\n%s\n---\n%s", layout, first, second)
		}
		if !strings.Contains(first, "fleet  : 4 devices, "+layout) {
			t.Errorf("%s: no fleet line:\n%s", layout, first)
		}
	}

	out := run("-profile", "lun2", "-scale", "0.005", "-fleet", "2", "-layout", "concat", "-check")
	if !strings.Contains(out, "verify : clean — all 2 devices audited") {
		t.Errorf("checked fleet replay did not audit every device:\n%s", out)
	}

	seal := []string{"-profile", "lun1", "-scale", "0.005", "-snapshot-out"}
	run(append(seal, "warm.axsn")...)
	out = run("-profile", "lun1", "-scale", "0.005", "-fleet", "4", "-layout", "raid10", "-chunk-kb", "16", "-snapshot-in", "warm.axsn")
	if !strings.Contains(out, "fleet  : 4 devices, raid10") || !strings.Contains(out, "erases :") {
		t.Errorf("a fleet forked from a single-device snapshot did not replay:\n%s", out)
	}
	run(append(seal, "warm2.axsn")...)
	a, err := os.ReadFile(filepath.Join(dir, "warm.axsn"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "warm2.axsn"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the same -snapshot-out command sealed two different containers")
	}
}

// TestAcrosssimSnapshotKeepsPageSize: a device restored with -snapshot-in
// measures the trace at its own page size, not the -page flag's, so a 4 KiB
// snapshot prints the trace line of the 4 KiB device it was taken from.
func TestAcrosssimSnapshotKeepsPageSize(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns acrosssim")
	}
	run := buildAcrosssim(t, t.TempDir())
	traceLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "trace  :") {
				return line
			}
		}
		t.Fatalf("no trace line in:\n%s", out)
		return ""
	}
	direct := run("-profile", "lun1", "-scale", "0.005", "-page", "4096", "-no-age", "-snapshot-out", "4k.axsn")
	restored := run("-profile", "lun1", "-scale", "0.005", "-snapshot-in", "4k.axsn")
	if got, want := traceLine(restored), traceLine(direct); got != want {
		t.Errorf("restored 4 KiB device prints\n  %s\nthe direct run printed\n  %s", got, want)
	}
}

// TestBenchmarkModuleBuilds vets the nested benchmark module, which
// `go test ./...` from the root does not reach: an API removal that breaks
// benchmark/ fails tier-1 here, not at the next benchmark run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go vet")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

// TestExamplesRun builds every program under examples/ once and runs each
// with its defaults: it must exit 0 and print something. The examples are
// the public API's walkthroughs, and nothing else runs them.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\nstderr:\n%s", name, err, stderr.String())
			}
			if strings.TrimSpace(stdout.String()) == "" {
				t.Fatalf("%s printed nothing", name)
			}
		})
	}
}

// TestTracegenRoundTrip generates a trace with tracegen and replays the file
// through acrosssim: the CSV writer, format auto-detection, parser, and
// replay engine all exercised as a user would.
func TestTracegenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	csv := runCmd(t, "./cmd/tracegen", "-profile", "lun2", "-scale", "0.002")
	if !strings.Contains(csv, ",W,") && !strings.Contains(csv, ",R,") {
		t.Fatalf("tracegen emitted no requests:\n%.400s", csv)
	}
	path := filepath.Join(t.TempDir(), "lun2.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/acrosssim", "-trace", path, "-scheme", "FTL", "-check")
	if !strings.Contains(out, "verify : clean") {
		t.Errorf("replay of generated trace not verified clean:\n%s", out)
	}
}

// TestAcrossdSmoke exercises the daemon as a process: build it, start it on
// an ephemeral port, submit a replay job over HTTP, poll it to completion,
// fetch the result, then SIGTERM and require a clean, graceful exit.
func TestAcrossdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "acrossd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/acrossd").CombinedOutput(); err != nil {
		t.Fatalf("building acrossd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "results"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The readiness line carries the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no readiness line: %v", sc.Err())
	}
	ready := sc.Text()
	fields := strings.Fields(ready)
	if len(fields) < 4 || !strings.Contains(ready, "listening on") {
		t.Fatalf("unexpected readiness line %q", ready)
	}
	base := "http://" + fields[3]
	// Keep draining stdout so the daemon never blocks on a full pipe, and
	// collect it for the shutdown assertions.
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		rest <- b.String()
	}()

	spec := `{"type":"replay","scheme":"Across-FTL","profile":"lun1","scale":0.001}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code=%d err=%v status=%+v", resp.StatusCode, err, st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != "succeeded" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job finished %s", st.State)
		}
	}

	resp, err = http.Get(base + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Result struct {
			Requests   int64   `json:"requests"`
			AvgWriteMs float64 `json:"avg_write_ms"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK ||
		doc.Result.Requests <= 0 || doc.Result.AvgWriteMs <= 0 {
		t.Fatalf("result: code=%d err=%v body=%s", resp.StatusCode, err, body)
	}
	checkDaemonMetrics(t, base)
	checkJobSpans(t, base, st.ID, "queued", "generate", "replay", "store")

	// Identical respec is answered from memory or store, not re-run.
	resp, err = http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stdout to EOF before Wait (which closes the pipe), so the
	// shutdown lines are not discarded.
	var tail string
	select {
	case tail = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly: %v", err)
	}
	if !strings.Contains(tail, "drained") {
		t.Errorf("shutdown output missing drain message:\n%s", tail)
	}
}

// getBody GETs url and returns the body, failing the test on a transport
// error or a status other than 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code=%d err=%v body=%.300s", url, resp.StatusCode, err, body)
	}
	return body
}

// checkDaemonMetrics scrapes a daemon that has run one job: the page must be
// valid Prometheus text, every counter must end in _total, the submission
// must be counted, and the scheduler and store gauges must be present.
func checkDaemonMetrics(t *testing.T, base string) {
	t.Helper()
	page := getBody(t, base+"/metrics")
	if err := obs.ValidateProm(page); err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, _ := strings.Cut(name, " "); typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s is not suffixed _total", name)
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name] = v
	}
	if samples["acrossd_jobs_submitted_total"] < 1 {
		t.Errorf("acrossd_jobs_submitted_total = %v after a submission", samples["acrossd_jobs_submitted_total"])
	}
	for _, gauge := range []string{"acrossd_scheduler_queued", "acrossd_store_entries"} {
		if _, ok := samples[gauge]; !ok {
			t.Errorf("/metrics has no %s", gauge)
		}
	}
}

// checkJobSpans fetches a job's span log as Chrome trace_event JSON and
// requires a span of every given name.
func checkJobSpans(t *testing.T, base, id string, want ...string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(getBody(t, base+"/api/v1/jobs/"+id+"/trace"), &doc); err != nil {
		t.Fatalf("span trace is not JSON: %v", err)
	}
	have := map[string]bool{}
	for _, e := range doc.TraceEvents {
		have[e.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("job %s has no %q span; have %v", id, name, have)
		}
	}
}
