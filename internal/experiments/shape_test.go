package experiments

import (
	"math"
	"testing"

	"across/internal/report"
	"across/internal/sim"
	"across/internal/trace"
	"across/internal/workload"
)

// TestReproductionShapes is the regression harness for the reproduction
// itself: it runs the three-scheme comparison at the quick scale and
// asserts every *relative* claim of the paper's evaluation, per trace.
// If a refactor silently changes who wins or by roughly what factor, this
// test fails before the full harness is ever run.
func TestReproductionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full comparison")
	}
	s := quickSession(t)
	pb := s.Cfg.SSD.PageBytes
	results, err := s.Results(pb, s.lunNames(), sim.Kinds())
	if err != nil {
		t.Fatal(err)
	}
	for _, lun := range s.lunNames() {
		f := results[runKey{sim.KindFTL, lun, pb}]
		m := results[runKey{sim.KindMRSM, lun, pb}]
		a := results[runKey{sim.KindAcross, lun, pb}]

		// Fig 9: Across-FTL improves write, read and overall time vs FTL.
		if a.AvgWriteLatency() >= f.AvgWriteLatency() {
			t.Errorf("%s: Across write latency %.3f >= FTL %.3f", lun, a.AvgWriteLatency(), f.AvgWriteLatency())
		}
		if a.TotalIOTime() >= f.TotalIOTime() {
			t.Errorf("%s: Across I/O time >= FTL", lun)
		}
		// Fig 9(c) magnitude band: the paper reports 4.6-11.6%; the tiny
		// quick-scale geometry amplifies the effect, so allow 2-40%.
		gain := 1 - a.TotalIOTime()/f.TotalIOTime()
		if gain < 0.02 || gain > 0.40 {
			t.Errorf("%s: overall I/O gain %.1f%% outside the plausible band", lun, 100*gain)
		}

		// Fig 10: flash writes FTL > Across; MRSM > both; map shares ordered.
		if a.Counters.FlashWrites() >= f.Counters.FlashWrites() {
			t.Errorf("%s: Across flash writes >= FTL", lun)
		}
		if m.Counters.FlashWrites() <= f.Counters.FlashWrites() {
			t.Errorf("%s: MRSM flash writes <= FTL (paper: MRSM highest)", lun)
		}
		if m.Counters.MapWrites <= a.Counters.MapWrites {
			t.Errorf("%s: MRSM map writes <= Across", lun)
		}
		if f.Counters.MapWrites != 0 || f.Counters.MapReads != 0 {
			t.Errorf("%s: baseline FTL performed map I/O", lun)
		}

		// Fig 11: erases Across < FTL < MRSM.
		if !(a.Counters.Erases < f.Counters.Erases && f.Counters.Erases < m.Counters.Erases) {
			t.Errorf("%s: erase ordering broken: A=%d F=%d M=%d",
				lun, a.Counters.Erases, f.Counters.Erases, m.Counters.Erases)
		}

		// Fig 12: table sizes FTL < Across < MRSM; DRAM MRSM >> others.
		if !(f.TableBytes < a.TableBytes && a.TableBytes < m.TableBytes) {
			t.Errorf("%s: table size ordering broken", lun)
		}
		if m.Counters.DRAMAccesses < 10*f.Counters.DRAMAccesses {
			t.Errorf("%s: MRSM DRAM accesses only %.1fx FTL (paper ~32x)",
				lun, float64(m.Counters.DRAMAccesses)/float64(f.Counters.DRAMAccesses))
		}
		ratio := float64(a.Counters.DRAMAccesses) / float64(f.Counters.DRAMAccesses)
		if ratio > 1.1 || ratio < 0.8 {
			t.Errorf("%s: Across DRAM accesses %.2fx FTL (paper ~1.0x)", lun, ratio)
		}

		// Fig 8: across census sanity.
		if a.Across == nil || a.Across.AreasTouched() == 0 {
			t.Errorf("%s: across census empty", lun)
			continue
		}
		if rr := a.Across.RollbackRatio(); rr > 0.25 {
			t.Errorf("%s: rollback ratio %.2f too high (paper 3.9%%)", lun, rr)
		}
		d, p, u := a.Across.ComponentShares()
		if d+p < 0.7 {
			t.Errorf("%s: profitable across writes only %.2f (paper ~91%%)", lun, d+p)
		}
		if u > 0.3 {
			t.Errorf("%s: unprofitable share %.2f too high", lun, u)
		}
	}
}

// TestFig13ShapeMonotone asserts the page-size monotonicity on the actual
// session traces (the harness only prints it).
func TestFig13ShapeMonotone(t *testing.T) {
	s := quickSession(t)
	for _, p := range s.Luns() {
		reqs, err := s.Trace(p)
		if err != nil {
			t.Fatal(err)
		}
		r4 := trace.Measure(reqs, 8).AcrossRatio()
		r8 := trace.Measure(reqs, workload.RefSPP).AcrossRatio()
		r16 := trace.Measure(reqs, 32).AcrossRatio()
		if !(r4 >= r8 && r8 >= r16) {
			t.Errorf("%s: across ratio not monotone: 4K=%.3f 8K=%.3f 16K=%.3f", p.Name, r4, r8, r16)
		}
	}
}

// TestFig14ShapeAcrossWinsAtEveryPageSize asserts the §4.3 takeaway on the
// smallest page-size sweep.
func TestFig14ShapeAcrossWinsAtEveryPageSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine replays")
	}
	s := quickSession(t)
	luns := s.lunNames()[:2] // two traces keep it quick
	for _, pb := range pageSizes {
		results, err := s.Results(pb, luns, []sim.SchemeKind{sim.KindFTL, sim.KindAcross})
		if err != nil {
			t.Fatal(err)
		}
		for _, lun := range luns {
			f := results[runKey{sim.KindFTL, lun, pb}]
			a := results[runKey{sim.KindAcross, lun, pb}]
			if a.TotalIOTime() >= f.TotalIOTime() {
				t.Errorf("%s @%dKB: Across I/O time >= FTL", lun, pb/1024)
			}
			if a.Counters.Erases > f.Counters.Erases {
				t.Errorf("%s @%dKB: Across erases > FTL", lun, pb/1024)
			}
		}
	}
}

// TestExtFleetShape pins what ext-fleet is cited for (EXPERIMENTS.md, "Fleet
// saturation"): striping below the page size leaves no across-page request
// for Across-FTL to re-align, so it collapses onto the baseline request for
// request; at 64 KB chunks the across-page traffic survives the split and
// Across-FTL's peak throughput beats the baseline's on every layout.
func TestExtFleetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 168 fleet replays")
	}
	s := quickSession(t)
	cells, err := s.fleetSweep()
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct {
		scheme  sim.SchemeKind
		layout  string
		chunkKB int
	}
	byKey := map[cellKey]report.FleetCell{}
	kneed := 0
	for _, c := range cells {
		byKey[cellKey{sim.SchemeKind(c.Scheme), c.Layout, c.ChunkKB}] = c
		if len(c.Points) < 4 {
			t.Errorf("%s %s %dKB: %d QD points, want >= 4", c.Scheme, c.Layout, c.ChunkKB, len(c.Points))
		}
		if c.KneeQD > 0 {
			kneed++
		}
	}
	if want := 4 * 7; len(byKey) != want {
		t.Fatalf("%d distinct cells, want %d", len(byKey), want)
	}
	if kneed < len(cells)/2 {
		t.Errorf("only %d of %d cells have a knee", kneed, len(cells))
	}
	pageKB := s.Cfg.SSD.PageBytes / 1024
	for k, a := range byKey {
		if k.scheme != sim.KindAcross {
			continue
		}
		f := byKey[cellKey{sim.KindFTL, k.layout, k.chunkKB}]
		switch {
		case k.chunkKB > 0 && k.chunkKB < pageKB:
			if a.SubAcross != 0 || f.SubAcross != 0 {
				t.Errorf("%s %dKB: sub-request across ratio %.3f / %.3f, want 0", k.layout, k.chunkKB, a.SubAcross, f.SubAcross)
			}
			// Equal to within the AMT lookups Across-FTL still pays (~1e-5).
			for i := range a.Points {
				at, ft := a.Points[i].Throughput, f.Points[i].Throughput
				if math.Abs(at-ft) > 1e-3*ft {
					t.Errorf("%s %dKB QD %d: Across-FTL %.1f req/s != FTL %.1f under sub-page striping",
						k.layout, k.chunkKB, a.Points[i].QD, at, ft)
				}
			}
		case k.chunkKB == 0 || k.chunkKB == 64:
			if a.Peak() <= f.Peak() {
				t.Errorf("%s %dKB: Across-FTL peak %.0f req/s <= FTL %.0f", k.layout, k.chunkKB, a.Peak(), f.Peak())
			}
		}
	}
}

// TestExtScenarioShape pins ext-scenario's matrix and the claim
// EXPERIMENTS.md makes from it: on the 8 KB device Across-FTL writes no
// more flash per host page than the baseline under any temporal or tenant
// structure.
func TestExtScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 replays")
	}
	s := quickSession(t)
	cells, err := s.scenarioMatrix()
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct {
		scheme   sim.SchemeKind
		scenario string
		pageKB   int
	}
	byKey := map[cellKey]scenarioCell{}
	for _, c := range cells {
		byKey[cellKey{c.Scheme, c.Scenario, c.PageKB}] = c
	}
	for _, kind := range studyKinds() {
		for _, name := range []string{"stationary", "burst", "daynight", "mixed"} {
			for _, kb := range []int{8, 16} {
				c, ok := byKey[cellKey{kind, name, kb}]
				if !ok {
					t.Errorf("cell %s/%s/%dKB missing", kind, name, kb)
					continue
				}
				if c.Requests <= 0 || c.Throughput <= 0 || c.WAF <= 0 {
					t.Errorf("%s/%s/%dKB: requests %d, throughput %.1f, WAF %.3f — all must be positive",
						kind, name, kb, c.Requests, c.Throughput, c.WAF)
				}
				if name == "mixed" && c.Cohorts != 3 {
					t.Errorf("%s/mixed/%dKB: %d cohorts, want 3", kind, kb, c.Cohorts)
				}
			}
			a, f := byKey[cellKey{sim.KindAcross, name, 8}], byKey[cellKey{sim.KindFTL, name, 8}]
			if a.WAF > f.WAF {
				t.Errorf("%s/8KB: Across-FTL WAF %.3f > FTL %.3f", name, a.WAF, f.WAF)
			}
		}
	}
	if len(cells) != len(byKey) || len(byKey) != 4*4*2 {
		t.Errorf("%d cells, %d distinct, want 32", len(cells), len(byKey))
	}
}
