// Command benchmark is the repository's performance ledger: one process runs
// one workload, checks its outputs and prints every metric by name with its
// unit. BENCHMARK.json at the repository root names the workloads, the
// end-to-end metrics with their regression bounds and the per-layer metrics;
// README.md in this directory says why each exists and which layer should
// move which number.
//
//	benchmark -workload vdi-replay -seed 0 -seconds 20 -trace 0 [-quick] [-o out.json]
//	benchmark compare <a.json|dir> <b.json|dir>
//
// The last line of standard output is the result object the driver reads:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. With -trace 0 it
// carries every end-to-end metric, with -trace 1 every per-layer metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart anchors setup_s: package initialisation is the closest a Go
// program gets to "process start".
var processStart = time.Now()

// workloads maps each BENCHMARK.json workload name to its body.
var workloads = map[string]func(*bench) error{
	"vdi-replay":  runVDIReplay,
	"gc-churn":    runGCChurn,
	"study-cold":  runStudyCold,
	"daemon-jobs": runDaemonJobs,
}

func main() {
	os.Exit(run(os.Args[1:], "BENCHMARK.json", os.Stdout, os.Stderr))
}

// run is main with its environment passed in, so the smoke test can drive
// the same code path in-process.
func run(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], specPath, stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	// -trace takes a value (0 or 1) because that is how the driver passes it.
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span file and CPU profile; 0 = end-to-end metrics")
	fs.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&opt.seed, "seed", 0, "offset added to every profile, scenario and aging seed (0 = the Table 2 seeds)")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the measured region in host seconds")
	fs.BoolVar(&opt.quick, "quick", false, "shrink inputs for a smoke test; the output is marked not comparable")
	fs.StringVar(&opt.out, "o", "", "report file (default .bench_build/out/<workload>.seed<N>.trace<T>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace == 1
	body, ok := workloads[opt.workload]
	if !ok || (*trace != 0 && *trace != 1) || opt.seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %v), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	if opt.out == "" {
		opt.out = filepath.Join(".bench_build", "out",
			fmt.Sprintf("%s.seed%d.trace%d.json", opt.workload, opt.seed, *trace))
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b := newBench(opt, spec)
	if err := body(b); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := b.finish(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are written down. The program emits values by name
// and refuses to finish if the names it produced differ from these.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
