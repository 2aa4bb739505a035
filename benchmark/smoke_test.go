package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine is the object the driver reads from the end of standard output.
type lastLine struct {
	Correct   *bool                  `json:"correct"`
	Attempted *int                   `json:"attempted"`
	Failed    *int                   `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quickRun runs one workload in-process with -quick and returns the driver's
// line and the report written with -o.
func quickRun(t *testing.T, workload string, seed, trace string) (lastLine, report) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace, "-quick", "-o", out}
	if code := run(args, specPath, &stdout, &stderr); code != 0 {
		t.Fatalf("%s -trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || last.Metrics == nil {
		t.Fatalf("%s: last line lacks one of correct/attempted/failed/metrics: %s", workload, lines[len(lines)-1])
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return last, rep
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced at
// -quick size and checks the contract: the declared metrics — each exactly
// once, well-named, with its unit — no failed operation, and outputs that
// are marked not comparable. It also checks that -seed reaches the inputs:
// the two runs at seed 0 digest alike, a run at another seed differently.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		digests := map[string]string{}
		for trace, declared := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			last, rep := quickRun(t, w.Name, "0", trace)
			digests[trace] = rep.ResultsSHA256
			if !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d (%v)", w.Name, trace, *last.Correct, *last.Attempted, *last.Failed, rep.Failures)
			}
			if len(last.Metrics) != len(declared) {
				t.Errorf("%s -trace %s: %d metrics emitted, %d declared", w.Name, trace, len(last.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := last.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
				case !ok:
					t.Errorf("%s -trace %s: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if rep.Comparable || !rep.Quick || rep.NumCPU == 0 || rep.GoVersion == "" || len(rep.Sizes) == 0 {
				t.Errorf("%s: report lacks its run description: %+v", w.Name, rep)
			}
			if trace == "1" {
				for _, f := range []string{rep.SpanFile, rep.ProfileFile} {
					if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
						t.Errorf("%s: traced run left no %q", w.Name, f)
					}
				}
			}
		}
		if digests["0"] != digests["1"] {
			t.Errorf("%s: two runs at seed 0 digest differently", w.Name)
		}
		if _, other := quickRun(t, w.Name, "7", "0"); other.ResultsSHA256 == digests["0"] {
			t.Errorf("%s: seed 7 digests like seed 0", w.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestParseTop(t *testing.T) {
	flat, total := parseTop(`File: acrossbench
Showing nodes accounting for 1.50s, 100% of 1.50s total
      flat  flat%   sum%        cum   cum%
     0.50s 33.33% 33.33%      0.90s 60.00%  across/internal/flash.(*Array).Program
     500ms 33.33% 66.67%      0.50s 33.33%  runtime.mallocgc
     0.25s 16.67% 83.33%      0.25s 16.67%  internal/runtime/maps.(*Map).getWithKey
     0.25s 16.67%   100%      0.25s 16.67%  encoding/json.(*encodeState).marshal
`)
	if total != 1.5 || flat["flash"] != 0.5 || flat["runtime"] != 0.75 || flat["json"] != 0.25 {
		t.Errorf("parseTop = %v total %v", flat, total)
	}
}

// TestCompareVerdicts drives `benchmark compare` over hand-written reports:
// within the bound is same, beyond it worse (exit 1), and a spread wider
// than the bound is unresolved.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, rate, q1, q3 float64) {
		rep := report{Workload: spec.Workloads[0].Name, Comparable: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, m := range spec.EndToEnd {
			rep.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		rep.Metrics["replay_req_per_s"] = metricValue{Value: rate, Unit: "1/s", Q1: q1, Q3: q3, N: 5}
		if err := writeJSON(filepath.Join(dir, "r.json"), &rep); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		rate, q1, q3 float64
		verdict      string
		exit         int
	}{
		{980, 970, 990, "same", 0},
		{700, 690, 710, "worse", 1},
		{700, 500, 900, "unresolved", 0},
	} {
		a, b := t.TempDir(), t.TempDir()
		write(a, 1000, 990, 1010)
		write(b, tc.rate, tc.q1, tc.q3)
		var stdout, stderr bytes.Buffer
		code := run([]string{"compare", a, b}, specPath, &stdout, &stderr)
		row := ""
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, "replay_req_per_s") {
				row = line
			}
		}
		if code != tc.exit || !strings.HasSuffix(row, tc.verdict) {
			t.Errorf("rate %v: exit %d, row %q; want exit %d, verdict %s (%s)", tc.rate, code, row, tc.exit, tc.verdict, stderr.String())
		}
	}
}
