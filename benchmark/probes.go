package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"across/internal/clock"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// The probes are the traced run's single-layer measurements (the † metrics
// of README.md): each drives one layer's public functions from the
// benchmark's own loop, outside the timed passes.

// probes runs the replay workloads' probes on the first trace of the matrix.
func (m *replayMatrix) probes(b *bench) error {
	reqs := m.traces[0]
	simSelf := 0.0
	for ki, kind := range m.kinds {
		replay, direct, err := m.directDrive(b, ki, reqs)
		if err != nil {
			return err
		}
		b.set(passMetric[kind], direct*1e9/float64(len(reqs)))
		simSelf += replay - direct
	}
	b.set("sim.self_s", simSelf)

	// ROADMAP's decision rule for the parallel engine reads this number.
	ki := slices.Index(m.kinds, sim.KindFTL)
	serial, err := m.timeReplay(ki, func(r *sim.Runner) (*sim.Result, error) { return r.ReplayQD(reqs, m.qd) })
	if err != nil {
		return err
	}
	parallel, err := m.timeReplay(ki, func(r *sim.Runner) (*sim.Result, error) {
		return r.ReplayParallel(reqs, m.qd, sim.ParallelOptions{Workers: 2})
	})
	if err != nil {
		return err
	}
	b.set("sim.parallel_speedup_w2", serial/parallel)

	flashNs, err := flashNsPerOp(&m.conf)
	if err != nil {
		return err
	}
	clockNs := clockNsPerSchedule(m.conf.Chips())
	b.set("flash.ns_per_op", flashNs)
	b.set("clock.ns_per_schedule", clockNs)
	// Estimates: pass 0's operation counts times the unit costs above.
	flashOps := b.rep.Metrics["flash.reads"].Value + b.rep.Metrics["flash.programs"].Value + b.rep.Metrics["flash.erases"].Value
	b.set("flash.est_busy_s", flashOps*flashNs/1e9)
	b.set("clock.est_busy_s", float64(m.clockOps)*clockNs/1e9)
	return nil
}

// timeReplay forks a runner from scheme ki's checkpoint and times fn on it.
func (m *replayMatrix) timeReplay(ki int, fn func(*sim.Runner) (*sim.Result, error)) (float64, error) {
	r, err := sim.Restore(m.snaps[ki])
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = fn(r)
	return time.Since(t0).Seconds(), err
}

// directDrive times Runner.Replay against the benchmark's own loop over
// Scheme.Write/Read on two identically restored runners. The loop is the
// FTL pass alone (scheme → ftl.Device → flash + clock) without the replay
// engine's classification, metric fold and queue-depth bookkeeping; its
// operation counters must equal the Replay pass's.
func (m *replayMatrix) directDrive(b *bench, ki int, reqs []trace.Request) (replay, direct float64, err error) {
	var want ftl.Counters
	replay, err = m.timeReplay(ki, func(r *sim.Runner) (*sim.Result, error) {
		res, err := r.Replay(reqs)
		if err == nil {
			want = res.Counters
		}
		return res, err
	})
	if err != nil {
		return 0, 0, err
	}
	r, err := sim.Restore(m.snaps[ki])
	if err != nil {
		return 0, 0, err
	}
	dev := r.Scheme.Device()
	dev.ResetMeasurement()
	if sr, ok := r.Scheme.(interface{ ResetStats() }); ok {
		sr.ResetStats()
	}
	t0 := time.Now()
	for _, req := range reqs {
		if req.Op == trace.OpWrite {
			_, err = r.Scheme.Write(req, req.Time)
		} else {
			_, err = r.Scheme.Read(req, req.Time)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	direct = time.Since(t0).Seconds()
	b.check(dev.Count == want, "%s: direct-drive counters %+v differ from Replay's %+v", m.kinds[ki], dev.Count, want)
	return replay, direct, nil
}

// flashNsPerOp times flash.Array alone on the workload's geometry: fill a
// block, invalidate its pages, erase it — the array's three state changes.
func flashNsPerOp(conf *ssdconf.Config) (float64, error) {
	arr, err := flash.NewArray(conf)
	if err != nil {
		return 0, err
	}
	blocks := arr.Geo.TotalBlocks()
	ops := 0
	t0 := time.Now()
	for round := 0; round < 4; round++ {
		for bid := flash.BlockID(0); int64(bid) < blocks; bid++ {
			first := arr.Geo.FirstPage(bid)
			for i := 0; i < conf.PagesPerBlock; i++ {
				if err := arr.Program(first+flash.PPN(i), flash.Tag{Kind: ftl.TagData, Key: int64(i)}); err != nil {
					return 0, err
				}
			}
			for i := 0; i < conf.PagesPerBlock; i++ {
				if err := arr.Invalidate(first + flash.PPN(i)); err != nil {
					return 0, err
				}
			}
			if err := arr.Erase(bid); err != nil {
				return 0, err
			}
			ops += 2*conf.PagesPerBlock + 1
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), nil
}

// clockNsPerSchedule times clock.Scheduler.Schedule alone, round-robin over
// the workload's chips.
func clockNsPerSchedule(chips int) float64 {
	const n = 4 << 20
	s := clock.NewScheduler(chips)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Schedule(i%chips, float64(i)*0.01, 0.2)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// setSpanSeconds reports the traced phase's self time for each layer that
// BENCHMARK.json declares a span_s metric for, and the share of the phase's
// wall-clock spent inside replay spans.
func setSpanSeconds(b *bench) {
	self, wall := b.traced.selfSeconds()
	for _, m := range b.spec.PerLayer {
		if layer, ok := strings.CutPrefix(m.Name, "span_s."); ok {
			b.set(m.Name, self[layer])
		}
	}
	if wall > 0 {
		b.set("bench.replay_span_frac", b.traced.seconds("sim.replay")/wall)
	}
}

// setCPUShares aggregates the traced phase's CPU profile into self-time
// shares for each package BENCHMARK.json declares a cpu_share metric for,
// from the text `go tool pprof -top` prints. A quick run skips it, and a
// missing toolchain leaves the shares at zero; the report says which.
func setCPUShares(b *bench, profile string) {
	if b.opt.quick {
		b.rep.Notes["cpu_share"] = "skipped: -quick"
		return
	}
	exe, err := os.Executable()
	if err != nil {
		b.rep.Notes["cpu_share"] = err.Error()
		return
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", exe, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		b.rep.Notes["cpu_share"] = fmt.Sprintf("go tool pprof: %v", err)
		return
	}
	flat, total := parseTop(string(out))
	b.rep.Notes["cpu_profile_seconds"] = total
	if total == 0 {
		return
	}
	for _, m := range b.spec.PerLayer {
		if pkg, ok := strings.CutSuffix(m.Name, ".cpu_share"); ok {
			b.set(m.Name, flat[pkg]/total)
		}
	}
}

// parseTop sums the flat column of `pprof -top` output by package.
func parseTop(out string) (flat map[string]float64, total float64) {
	flat = map[string]float64{}
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		total += d.Seconds()
		flat[packageOf(f[5])] += d.Seconds()
	}
	return flat, total
}

// packageOf maps a profiled function name to its package's last element:
// "across/internal/flash.(*Array).Program" → "flash", "runtime.mallocgc" →
// "runtime".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime") || strings.HasPrefix(fn, "internal/runtime") {
		return "runtime"
	}
	fn = strings.TrimPrefix(fn, "across/internal/")
	pkg, _, _ := strings.Cut(fn, ".")
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg
}
