package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// compare applies BENCHMARK.json's bounds to two sets of runs. Each argument
// is a report file or a directory of them (untraced, full-size runs only);
// per end-to-end metric × workload it prints both medians, how much worse
// the second is, the bound and a verdict, and returns non-zero on "worse" or
// on any failed operation.
//
// Verdicts follow the choosing-metrics guide: "unresolved" when either
// side's own spread (the quartile distance over its runs, or inside its one
// run) is wider than the bound — unless every run of b beats every run of a.
func compare(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <a.json|dir> <b.json|dir>")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var sets [2]map[string][]report
	for i, path := range args {
		sets[i], err = loadReports(path)
		if err == nil && len(sets[i]) == 0 {
			err = fmt.Errorf("%s holds no comparable report", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	a, b := sets[0], sets[1]

	bad := false
	fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]report{}, ra...), rb...) {
			if r.Failed > 0 {
				fmt.Fprintf(stdout, "%-12s seed %d: %d of %d operations failed\n", w.Name, r.Seed, r.Failed, r.Attempted)
				bad = true
			}
		}
		for _, seed := range movedSeeds(ra, rb) {
			fmt.Fprintf(stdout, "%-12s seed %d: results_sha256 differs: a host-speed change must not move it\n", w.Name, seed)
		}
		for _, m := range spec.EndToEnd {
			va, sa := values(ra, m.Name)
			vb, sb := values(rb, m.Name)
			ma, mb := median(va), median(vb)
			worseBy := (mb - ma) / ma
			if m.Better == "higher" {
				worseBy = -worseBy
			}
			verdict := "same"
			switch {
			case max(sa, sb) > m.Bound && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				bad = true
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", w.Name, m.Name, ma, mb, worseBy*100, m.Bound*100, verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// loadReports reads the untraced, full-size reports at path (a file, or
// every *.json of a directory that is a report), grouped by workload.
func loadReports(path string) (map[string][]report, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string][]report{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Comparable && !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// values returns a metric's value in every run and the relative spread of
// those values: the quartile distance over the runs when there are at least
// four, else the widest quartile distance recorded inside one run.
func values(runs []report, name string) (vals []float64, spread float64) {
	for _, r := range runs {
		m := r.Metrics[name]
		vals = append(vals, m.Value)
		if m.N > 0 && m.Value != 0 {
			spread = max(spread, (m.Q3-m.Q1)/m.Value)
		}
	}
	if len(vals) >= 4 {
		q1, med, q3 := quartiles(vals)
		spread = (q3 - q1) / med
	}
	return vals, spread
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// movedSeeds lists the seeds both sets ran whose results_sha256 differ.
func movedSeeds(a, b []report) []int64 {
	digest := map[int64]string{}
	for _, r := range a {
		digest[r.Seed] = r.ResultsSHA256
	}
	var moved []int64
	for _, r := range b {
		if d, ok := digest[r.Seed]; ok && d != r.ResultsSHA256 && !slices.Contains(moved, r.Seed) {
			moved = append(moved, r.Seed)
		}
	}
	slices.Sort(moved)
	return moved
}
