package acrossftl

import (
	"testing"

	"across/internal/check"
	"across/internal/ftl"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// ablationConf is the ablation device: Table 1 timing and page geometry on
// four chips of 128 blocks x 32 pages (256 MiB).
func ablationConf() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 128
	c.PagesPerBlock = 32
	return c
}

// replayChecked serves reqs in order on a fresh Across-FTL built with opts,
// with a shadow-model checker verifying every request and auditing the
// device at the end, and returns the scheme.
func replayChecked(t *testing.T, conf ssdconf.Config, opts Options, reqs []trace.Request) *Scheme {
	t.Helper()
	s, err := NewWithOptions(&conf, opts)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := check.New(s, check.Options{Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.Op == trace.OpWrite {
			_, err = s.Write(r, r.Time)
			if err == nil {
				err = chk.OnWrite(r)
			}
		} else {
			_, err = s.Read(r, r.Time)
			if err == nil {
				err = chk.OnRead(r)
			}
		}
		if err != nil {
			t.Fatalf("request %d (%+v): %v", i, r, err)
		}
	}
	if err := chk.Finish(); err != nil {
		t.Fatal(err)
	}
	if chk.SectorChecks() == 0 {
		t.Fatal("the shadow model checked no sectors")
	}
	return s
}

// TestAMergeOffRollsBackInstead: with AMerge disabled, every update that
// conflicts with an area rolls it back, so a lun1 trace makes no AMerge of
// either kind, more rollbacks and more flash writes than the paper's design.
func TestAMergeOffRollsBackInstead(t *testing.T) {
	conf := ablationConf()
	p, err := workload.LunProfile("lun1")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scale(0.004), conf.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	on := replayChecked(t, conf, Options{}, reqs)
	off := replayChecked(t, conf, Options{DisableAMerge: true}, reqs)
	son, soff := on.Stats(), off.Stats()
	if son.ProfitableAMerge+son.UnprofitableAMerge == 0 {
		t.Fatalf("the default scheme made no AMerge: the trace cannot show the ablation (%+v)", son)
	}
	if soff.ProfitableAMerge != 0 || soff.UnprofitableAMerge != 0 {
		t.Errorf("AMerge off still merged: %d profitable, %d unprofitable", soff.ProfitableAMerge, soff.UnprofitableAMerge)
	}
	if soff.Rollbacks <= son.Rollbacks {
		t.Errorf("rollbacks %d with AMerge off, %d with it on: want more off", soff.Rollbacks, son.Rollbacks)
	}
	won, woff := on.Dev.Count.FlashWrites(), off.Dev.Count.FlashWrites()
	if woff <= won {
		t.Errorf("flash writes %d with AMerge off, %d with it on: want more off", woff, won)
	}
}

// TestAMTBudgetSpillsToFlash: areas whose AMT entries span more translation
// pages than the DRAM budget holds spill through the map store, and a budget
// that holds them all makes no map traffic. One across-page write at every
// other LPN makes LogicalPages/2 areas; reading them back reloads each
// translation page.
func TestAMTBudgetSpillsToFlash(t *testing.T) {
	conf := ablationConf()
	spp := int64(conf.SectorsPerPage())
	var reqs []trace.Request
	for _, op := range []trace.Op{trace.OpWrite, trace.OpRead} {
		for lpn := int64(0); lpn+1 < conf.LogicalPages(); lpn += 2 {
			reqs = append(reqs, trace.Request{Time: float64(len(reqs)), Op: op, Offset: lpn*spp + spp/2, Count: int32(spp)})
		}
	}
	const small, large = 2, 64
	areas := conf.LogicalPages() / 2
	perPage := int64(conf.PageBytes / conf.AMTEntryBytes)
	if pages := (areas + perPage - 1) / perPage; pages <= small || pages > large {
		t.Fatalf("%d areas fill %d AMT translation pages: want more than %d and at most %d", areas, pages, small, large)
	}
	mapOps := func(budget int) ftl.Counters {
		s := replayChecked(t, conf, Options{AMTCachePages: budget}, reqs)
		if st := s.Stats(); st.DirectWrites != areas || st.DirectReads != areas {
			t.Fatalf("budget %d: %d direct writes and %d direct reads, want %d of each", budget, st.DirectWrites, st.DirectReads, areas)
		}
		return s.Dev.Count
	}
	if c := mapOps(small); c.MapReads == 0 || c.MapWrites == 0 {
		t.Errorf("a %d-page AMT budget made %d map reads and %d map writes: want both above 0", small, c.MapReads, c.MapWrites)
	}
	if c := mapOps(large); c.MapReads != 0 || c.MapWrites != 0 {
		t.Errorf("a %d-page AMT budget made %d map reads and %d map writes: want none", large, c.MapReads, c.MapWrites)
	}
}
