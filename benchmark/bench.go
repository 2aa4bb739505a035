package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A workload's set-up is repeated so that setup_s is a median, not one
// sample: at least minSetups times, and further while it has taken less than
// setupSeconds in all, up to maxSetups times. The last set-up's products are
// the ones measured.
const (
	minSetups    = 3
	maxSetups    = 7
	setupSeconds = 3.0
)

// metricValue is one reported number. Host-time metrics carry the quartiles
// and sample count of the passes they are the median of.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is the -o document: everything needed to interpret the numbers and
// to compare two runs.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Quick       bool    `json:"quick"`
	Trace       bool    `json:"trace"`
	Comparable  bool    `json:"comparable"`
	GoVersion   string  `json:"go_version"`
	GitRevision string  `json:"git_revision"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`

	// Sizes states the input size every rate is "at": requests, device
	// bytes, cells or jobs, client count and loop type.
	Sizes  map[string]any `json:"sizes"`
	Passes int            `json:"passes"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// ResultsSHA256 digests every simulated result of the first pass. It
	// is not a metric: a host-speed change must leave it unchanged.
	ResultsSHA256 string                 `json:"results_sha256"`
	Metrics       map[string]metricValue `json:"metrics"`
	Notes         map[string]any         `json:"notes,omitempty"`
	SpanFile      string                 `json:"span_file,omitempty"`
	ProfileFile   string                 `json:"profile_file,omitempty"`
}

// bench is the state of one run: options, declared metrics, the values
// produced so far, the output-check tally and (traced runs) the span log.
type bench struct {
	opt    options
	spec   *benchSpec
	units  map[string]string
	rep    report
	digest hash.Hash
	spans  *spanRecorder // nil unless the traced phase is running
	traced *spanRecorder // the recorder of the traced phase, kept for finish
}

func newBench(opt options, spec *benchSpec) *bench {
	b := &bench{opt: opt, spec: spec, units: map[string]string{}, digest: sha256.New()}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		b.units[m.Name] = m.Unit
	}
	b.rep = report{
		Workload:    opt.workload,
		Seed:        opt.seed,
		Seconds:     opt.seconds,
		Quick:       opt.quick,
		Trace:       opt.trace,
		Comparable:  !opt.quick,
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Sizes:       map[string]any{},
		Metrics:     map[string]metricValue{},
		Notes:       map[string]any{},
	}
	return b
}

// gitRevision reads the revision the Go linker stamped into the binary.
// The driver's checkout is not a git repository, so "unknown" is expected
// there; no git process is started.
func gitRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// check tallies one output check; a failed one is what ops_failed counts.
func (b *bench) check(ok bool, format string, args ...any) {
	b.rep.Attempted++
	if ok {
		return
	}
	b.rep.Failed++
	if len(b.rep.Failures) < 10 {
		b.rep.Failures = append(b.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric that is one exact number.
func (b *bench) set(name string, v float64) {
	b.rep.Metrics[name] = metricValue{Value: v, Unit: b.units[name]}
}

// setMedian records a host-time metric as the median of its samples, with
// quartiles and the sample count.
func (b *bench) setMedian(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	b.rep.Metrics[name] = metricValue{Value: med, Unit: b.units[name], Q1: q1, Q3: q3, N: len(samples)}
}

// setup runs a workload's set-up repeatedly (once when quick or traced) and
// records setup_s as the median. The first sample runs from process start,
// so flag parsing and runtime start-up are inside it.
func (b *bench) setup(fn func() error) error {
	lo, hi := minSetups, maxSetups
	if b.opt.quick || b.opt.trace {
		lo, hi = 1, 1
	}
	var samples []float64
	start := processStart
	for i := 0; i < lo || (i < hi && time.Since(processStart).Seconds() < setupSeconds); i++ {
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, time.Since(start).Seconds())
		start = time.Now()
	}
	if !b.opt.trace {
		b.setMedian("setup_s", samples)
	}
	return nil
}

// passes calls fn until budget seconds have passed and at least min passes
// ran, and returns each pass's wall time in seconds. Run length is set by
// the number of passes, never by the size of the inputs.
func (b *bench) passes(budget float64, min int, fn func(pass int) error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for p := 0; p < min || time.Since(start).Seconds() < budget; p++ {
		t0 := time.Now()
		if err := fn(p); err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	b.rep.Passes += len(walls)
	return walls, nil
}

// minPasses is the least number of passes a phase runs, whatever its budget:
// enough for a median.
func (b *bench) minPasses() int {
	if b.opt.quick {
		return 2
	}
	return 3
}

// tracedPasses is the pass schedule of a traced run: a third of the run
// untraced (counts, allocations and the baseline for the tracing overhead),
// then a third with spans and the CPU profile on; the caller's probes take
// the rest. It reports what the trace itself says — the overhead, the span
// self times and the CPU shares — and returns the number of untraced passes.
func (b *bench) tracedPasses(pass func(int) error) (int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	untraced, err := b.passes(b.opt.seconds/3, b.minPasses(), pass)
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	b.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	var traced []float64
	prof, err := b.tracePhase(func() error {
		var err error
		traced, err = b.passes(b.opt.seconds/3, b.minPasses(), func(p int) error { return pass(len(untraced) + p) })
		return err
	})
	if err != nil {
		return 0, err
	}
	b.set("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	b.set("bench.num_cpu", float64(runtime.NumCPU()))
	b.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	setSpanSeconds(b)
	setCPUShares(b, prof)
	return len(untraced), nil
}

// setHostTimes reports the two host-time end-to-end metrics from per-cell
// samples in seconds (samples of them per cell): replay holds the time inside
// Replay alone, requests is what those cells replay in one pass, wall holds a
// cell's whole time. Medians are taken per cell and then summed: a burst of
// interference spoils the cells it hits, not the whole pass it falls in.
func (b *bench) setHostTimes(replay, wall [][]float64, requests float64, samples int) {
	q1, med, q3 := sumOfQuartiles(replay)
	b.rep.Metrics["replay_req_per_s"] = metricValue{Value: requests / med, Unit: b.units["replay_req_per_s"], Q1: requests / q3, Q3: requests / q1, N: samples}
	q1, med, q3 = sumOfQuartiles(wall)
	perCell := 1000 / float64(len(wall))
	b.rep.Metrics["cell_wall_ms"] = metricValue{Value: med * perCell, Unit: b.units["cell_wall_ms"], Q1: q1 * perCell, Q3: q3 * perCell, N: samples}
}

// sumOfQuartiles sums, over cells, each cell's quartiles across passes.
func sumOfQuartiles(cells [][]float64) (q1, med, q3 float64) {
	for _, samples := range cells {
		a, b, c := quartiles(samples)
		q1, med, q3 = q1+a, med+b, q3+c
	}
	return q1, med, q3
}

// span opens a span in the traced phase and returns the function closing
// it; outside the traced phase it costs one nil check.
func (b *bench) span(name, cell string) func() {
	if b.spans == nil {
		return nop
	}
	return b.spans.begin(name, cell)
}

func nop() {}

// tracePhase runs fn with span recording and a CPU profile on, and returns
// the profile's path. End-to-end metrics never come from this phase.
func (b *bench) tracePhase(fn func() error) (string, error) {
	base := strings.TrimSuffix(b.opt.out, ".json")
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return "", err
	}
	prof := base + ".cpu.pprof"
	f, err := os.Create(prof)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	b.traced = newSpanRecorder()
	b.spans = b.traced
	err = fn()
	b.spans = nil
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	b.rep.ProfileFile = prof
	return prof, err
}

// finish checks the produced metric names against BENCHMARK.json, writes the
// report (and span file), prints every metric and, last, the driver's line.
func (b *bench) finish(stdout io.Writer) error {
	declared := b.spec.EndToEnd
	if b.opt.trace {
		declared = b.spec.PerLayer
	} else {
		b.set("peak_rss_mb", peakRSSMiB())
	}
	final := map[string]metricValue{}
	for _, m := range declared {
		v, ok := b.rep.Metrics[m.Name]
		if !ok {
			if !b.opt.trace {
				return fmt.Errorf("workload %s did not produce end-to-end metric %s", b.opt.workload, m.Name)
			}
			// A per-layer metric a workload leaves unset belongs to a layer
			// the workload does not run: zero work, zero time.
			v = metricValue{Unit: m.Unit}
			b.rep.Metrics[m.Name] = v
		}
		final[m.Name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	for name := range b.rep.Metrics {
		if _, ok := final[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json for -trace %v", name, b.opt.trace)
		}
	}
	b.rep.ResultsSHA256 = hex.EncodeToString(b.digest.Sum(nil))

	if err := os.MkdirAll(filepath.Dir(b.opt.out), 0o755); err != nil {
		return err
	}
	if b.traced != nil {
		b.rep.SpanFile = strings.TrimSuffix(b.opt.out, ".json") + ".spans.json"
		if err := writeJSON(b.rep.SpanFile, b.traced.spans); err != nil {
			return err
		}
	}
	if err := writeJSON(b.opt.out, &b.rep); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v quick %v passes %d\n",
		b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace, b.opt.quick, b.rep.Passes)
	fmt.Fprintf(stdout, "results_sha256 %s\nattempted %d failed %d\n", b.rep.ResultsSHA256, b.rep.Attempted, b.rep.Failed)
	for _, f := range b.rep.Failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	names := make([]string, 0, len(final))
	for name := range final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := b.rep.Metrics[name]
		line := fmt.Sprintf("%-36s %s %s", name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf("  (q1 %.6g q3 %.6g n %d)", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintln(stdout, line)
	}
	last, err := json.Marshal(map[string]any{
		"correct":   b.rep.Failed == 0,
		"attempted": b.rep.Attempted,
		"failed":    b.rep.Failed,
		"metrics":   final,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(last))
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// peakRSSMiB reads VmHWM, the process's peak resident set, from procfs.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	fields := strings.Fields(string(rest))
	kb, _ := strconv.ParseFloat(fields[0], 64)
	return kb / 1024
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// because that is how the driver measures spread.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
