// Command bench measures raw simulator replay throughput for each FTL
// scheme and writes a machine-readable JSON report, so performance work on
// the replay hot path can be tracked across commits.
//
// Usage:
//
//	bench                    # print the report to stdout
//	bench -o BENCH_PR1.json  # also write it to a file
//
// The benchmark device and workload mirror BenchmarkReplayThroughput in the
// repository's bench suite: Table 1 flash timing on a 4-chip 256 MiB array,
// replaying the lun1 profile at 0.4% scale against an aged device.
//
// With -loadgen the command instead acts as a closed-loop load generator
// against a running acrossd daemon: N concurrent clients each submit a
// distinct replay job, poll it to completion and fetch its result, and the
// report captures end-to-end job throughput and latency percentiles:
//
//	bench -loadgen -addr http://127.0.0.1:8377 -clients 100 -jobs 200
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"across/internal/obs"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// Report is the top-level JSON document.
type Report struct {
	Benchmark     string         `json:"benchmark"`
	GoVersion     string         `json:"go_version"`
	GitRevision   string         `json:"git_revision,omitempty"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	Device        string         `json:"device"`
	TraceRequests int            `json:"trace_requests"`
	Schemes       []SchemeReport `json:"schemes"`
}

// SchemeReport is one scheme's measured replay performance, plus the
// replay's simulation-side outcome (wear distribution and chip-load
// balance) so a perf regression that trades speed for simulation behaviour
// is visible in the same artifact.
type SchemeReport struct {
	Scheme         string  `json:"scheme"`
	Iterations     int     `json:"iterations"`
	NsPerOp        int64   `json:"ns_per_op"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`

	Wear    sim.WearSummary `json:"wear"`
	UtilMin float64         `json:"utilisation_min"`
	UtilMax float64         `json:"utilisation_max"`
}

// gitRevision identifies the benched commit: the build info's vcs.revision
// when the binary was built from a checkout, falling back to git itself
// (go run strips VCS stamping).
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func benchSSD() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 128
	c.PagesPerBlock = 32
	return c
}

func benchTrace(conf ssdconf.Config) ([]trace.Request, error) {
	p, err := workload.LunProfile("lun1")
	if err != nil {
		return nil, err
	}
	return workload.Generate(p.Scale(0.004), conf.LogicalSectors())
}

// replayResult benchmarks one scheme: per iteration, replay the whole trace
// on a pre-aged runner (aging and construction are outside the timed
// region). It also returns the last iteration's simulation Result.
func replayResult(kind sim.SchemeKind, conf ssdconf.Config, reqs []trace.Request) (testing.BenchmarkResult, *sim.Result, error) {
	var runErr error
	var last *sim.Result
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		r, err := sim.NewRunner(kind, conf)
		if err != nil {
			runErr = err
			return
		}
		if err := r.Age(sim.DefaultAging()); err != nil {
			runErr = err
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sr, err := r.Replay(reqs)
			if err != nil {
				runErr = err
				return
			}
			last = sr
		}
	})
	return res, last, runErr
}

// instrumentedReplay runs one untimed, fully observed replay of a scheme —
// the benchmark artifact then ships with an inspectable execution trace and
// metrics series from the same workload.
func instrumentedReplay(kind sim.SchemeKind, conf ssdconf.Config, reqs []trace.Request, traceOut, metricsOut string, intervalMs float64) (err error) {
	r, rerr := sim.NewRunner(kind, conf)
	if rerr != nil {
		return rerr
	}
	if aerr := r.Age(sim.DefaultAging()); aerr != nil {
		return aerr
	}
	// Every opened writer is closed exactly once on every path, and a failed
	// close (lost buffered output) surfaces even when the replay succeeded.
	var closers []interface{ Close() error }
	defer func() {
		var cerrs []error
		for _, c := range closers {
			if cerr := c.Close(); cerr != nil {
				cerrs = append(cerrs, cerr)
			}
		}
		err = errors.Join(append([]error{err}, cerrs...)...)
	}()
	if traceOut != "" {
		trc, c, oerr := obs.OpenTrace(traceOut, conf.Chips())
		if oerr != nil {
			return oerr
		}
		r.SetTracer(trc)
		closers = append(closers, c)
	}
	if metricsOut != "" {
		smp, serr := obs.NewSampler(intervalMs)
		if serr != nil {
			return serr
		}
		sink, c, oerr := obs.OpenMetrics(metricsOut)
		if oerr != nil {
			return oerr
		}
		smp.SetSink(sink)
		r.SetSampler(smp)
		closers = append(closers, c)
	}
	_, err = r.Replay(reqs)
	return err
}

func main() {
	out := flag.String("o", "", "also write the JSON report to this file")
	traceOut := flag.String("trace-out", "", "also run one instrumented replay writing an execution trace here (.jsonl = event lines, else Chrome trace_event)")
	metricsOut := flag.String("metrics-out", "", "also run one instrumented replay writing metrics JSONL here")
	metricsInt := flag.Float64("metrics-interval-ms", 50, "sampling interval for -metrics-out in simulated ms")
	obsScheme := flag.String("obs-scheme", "Across-FTL", "scheme for the instrumented replay (with -trace-out / -metrics-out)")
	loadgen := flag.Bool("loadgen", false, "closed-loop load-generator mode against a running acrossd daemon")
	addr := flag.String("addr", "http://127.0.0.1:8377", "acrossd base URL (with -loadgen)")
	clients := flag.Int("clients", 100, "concurrent closed-loop clients (with -loadgen)")
	jobsN := flag.Int("jobs", 200, "total distinct jobs to push (with -loadgen)")
	loadScale := flag.Float64("loadgen-scale", 0.001, "per-job workload scale (with -loadgen)")
	forksweep := flag.Bool("forksweep", false, "fork-from-snapshot amortisation mode: age once + snapshot, fork every sweep variant from the checkpoint, versus fresh aging per variant")
	forksweepScheme := flag.String("forksweep-scheme", "Across-FTL", "scheme to sweep (with -forksweep)")
	forksweepQDs := flag.String("forksweep-qds", "0,2,4,8", "comma-separated queue-depth variants (with -forksweep)")
	forksweepAging := flag.Float64("forksweep-aging-scale", 1.0, "scale of the lun6 aging trace replayed during warm-up (with -forksweep)")
	fleetsweep := flag.Bool("fleetsweep", false, "fleet saturation mode: sweep every scheme over layout x chunk cells of an N-device volume with a closed-loop QD ladder, reporting the saturation knee per cell")
	fleetDevices := flag.Int("fleet-devices", 4, "devices per fleet volume (with -fleetsweep)")
	fleetScale := flag.Float64("fleet-scale", 0.002, "per-cell workload scale (with -fleetsweep)")
	scenariosweep := flag.Bool("scenariosweep", false, "scenario matrix mode: replay every scheme against every builtin scenario plus the MSR trace on two page sizes")
	scenarioScale := flag.Float64("scenario-scale", 0.002, "builtin-scenario scale (with -scenariosweep)")
	scenarioTrace := flag.String("scenario-trace", "internal/trace/testdata/msr_sample.csv", "real-trace file for the msr-trace cells (with -scenariosweep)")
	flag.Parse()

	if *loadgen {
		if err := runLoadgen(*addr, *clients, *jobsN, *loadScale, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *forksweep {
		if err := runForkSweep(*forksweepScheme, *forksweepQDs, *forksweepAging, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *fleetsweep {
		if err := runFleetSweep(*fleetDevices, *fleetScale, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *scenariosweep {
		if err := runScenarioSweep(*scenarioScale, *scenarioTrace, *out); err != nil {
			fatal(err)
		}
		return
	}

	conf := benchSSD()
	reqs, err := benchTrace(conf)
	if err != nil {
		fatal(err)
	}

	rep := Report{
		Benchmark:     "ReplayThroughput",
		GoVersion:     runtime.Version(),
		GitRevision:   gitRevision(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Device:        conf.String(),
		TraceRequests: len(reqs),
	}
	for _, kind := range sim.Kinds() {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", kind)
		r, last, err := replayResult(kind, conf, reqs)
		if err != nil {
			fatal(err)
		}
		sr := SchemeReport{
			Scheme:         string(kind),
			Iterations:     r.N,
			NsPerOp:        r.NsPerOp(),
			RequestsPerSec: float64(len(reqs)) * float64(r.N) / r.T.Seconds(),
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
		}
		if last != nil {
			sr.Wear = last.Wear
			sr.UtilMin, sr.UtilMax = last.UtilisationSpread()
		}
		rep.Schemes = append(rep.Schemes, sr)
	}

	if *traceOut != "" || *metricsOut != "" {
		fmt.Fprintf(os.Stderr, "bench: instrumented replay (%s)...\n", *obsScheme)
		if err := instrumentedReplay(sim.SchemeKind(*obsScheme), conf, reqs, *traceOut, *metricsOut, *metricsInt); err != nil {
			fatal(err)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	os.Stdout.Write(enc)
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
