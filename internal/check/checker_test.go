package check_test

import (
	"strings"
	"testing"

	"across/internal/acrossftl"
	"across/internal/check"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/mapping"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// smallConf is the scaled Table 1 geometry the sim tests use: big enough for
// real GC, small enough to audit frequently.
func smallConf() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

func smallTrace(t *testing.T, seed int64, scale float64) []trace.Request {
	t.Helper()
	c := smallConf()
	p := workload.LunProfiles()[0].Scale(scale)
	p.Seed = seed
	reqs, err := workload.Generate(p, c.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func allKinds() []sim.SchemeKind {
	return append(sim.Kinds(), sim.KindDFTL)
}

// TestCheckedReplayAllSchemes replays an aged mixed workload under the full
// verification regime — shadow model on every request, device audit every 50
// — for every scheme. Zero violations is the acceptance criterion.
func TestCheckedReplayAllSchemes(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(string(kind), func(t *testing.T) {
			r, err := sim.NewRunner(kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Age(sim.DefaultAging()); err != nil {
				t.Fatalf("Age: %v", err)
			}
			chk, err := r.EnableChecks(check.Options{Shadow: true, AuditEvery: 50})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Replay(smallTrace(t, 7, 0.05))
			if err != nil {
				t.Fatalf("checked replay: %v", err)
			}
			if res.Requests == 0 {
				t.Fatal("no requests replayed")
			}
			if chk.Audits() < 2 {
				t.Errorf("only %d audits ran", chk.Audits())
			}
			if chk.SectorChecks() == 0 {
				t.Error("shadow model checked no sectors")
			}
		})
	}
}

// TestCheckerRejectsUncheckableScheme: a scheme without the verification
// methods gets a clear construction error, not a panic mid-replay.
func TestCheckerRejectsUncheckableScheme(t *testing.T) {
	conf := smallConf()
	inner, err := ftl.NewBaseline(&conf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.New(opaqueScheme{inner}, check.Options{}); err == nil || !strings.Contains(err.Error(), "does not implement Auditable") {
		t.Fatalf("checker over an opaque scheme: %v", err)
	}
}

// opaqueScheme hides the verification methods of the wrapped scheme.
type opaqueScheme struct{ inner ftl.Scheme }

func (o opaqueScheme) Name() string        { return o.inner.Name() }
func (o opaqueScheme) TableBytes() int64   { return o.inner.TableBytes() }
func (o opaqueScheme) Device() *ftl.Device { return o.inner.Device() }
func (o opaqueScheme) Write(r trace.Request, now float64) (float64, error) {
	return o.inner.Write(r, now)
}
func (o opaqueScheme) Read(r trace.Request, now float64) (float64, error) {
	return o.inner.Read(r, now)
}

// writtenBaseline builds a baseline scheme with a few pages written and an
// armed checker, for the corruption-detection tests.
func writtenBaseline(t *testing.T) (*ftl.Baseline, *check.Checker) {
	t.Helper()
	conf := smallConf()
	s, err := ftl.NewBaseline(&conf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := check.New(s, check.Options{Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	spp := conf.SectorsPerPage()
	now := 0.0
	for lpn := int64(0); lpn < 8; lpn++ {
		req := trace.Request{Op: trace.OpWrite, Offset: lpn * int64(spp), Count: int32(spp)}
		if now, err = s.Write(req, now); err != nil {
			t.Fatal(err)
		}
	}
	// Mirror the engine: measurement counters reset, then the checker armed,
	// so the attribution identities start from zero.
	s.Dev.ResetMeasurement()
	if err := c.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("audit of healthy device: %v", err)
	}
	return s, c
}

// TestAuditDetectsMisdirectedMapping: a PMT entry silently repointed at a
// foreign page must fail the audit and the shadow check.
func TestAuditDetectsMisdirectedMapping(t *testing.T) {
	s, c := writtenBaseline(t)
	p3, p4 := s.PMT.PPNOf(3), s.PMT.PPNOf(4)
	s.PMT.SetPPN(3, p4) // lpn 3 now reads lpn 4's page
	if err := c.Audit(); err == nil {
		t.Fatal("audit missed a misdirected mapping")
	}
	spp := s.Conf.SectorsPerPage()
	err := c.OnRead(trace.Request{Op: trace.OpRead, Offset: 3 * int64(spp), Count: int32(spp)})
	if err == nil || !strings.Contains(err.Error(), "misdirected") {
		t.Fatalf("shadow check on misdirected read: %v", err)
	}
	s.PMT.SetPPN(3, p3)
	if err := c.Audit(); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

// TestAuditDetectsLostWrite: dropping a mapping entry (the sector no longer
// resolves) must fail the ownership sweep and the shadow check.
func TestAuditDetectsLostWrite(t *testing.T) {
	s, c := writtenBaseline(t)
	ppn := s.PMT.PPNOf(5)
	s.PMT.SetPPN(5, flash.NilPPN)
	// The flash page is still valid but now unowned: the bijection fails.
	if err := c.Audit(); err == nil || !strings.Contains(err.Error(), "owned") {
		t.Fatalf("audit on leaked page: %v", err)
	}
	spp := s.Conf.SectorsPerPage()
	err := c.OnRead(trace.Request{Op: trace.OpRead, Offset: 5 * int64(spp), Count: int32(spp)})
	if err == nil || !strings.Contains(err.Error(), "lost write") {
		t.Fatalf("shadow check on lost write: %v", err)
	}
	s.PMT.SetPPN(5, ppn)
}

// TestShadowDetectsCorruptAreaMidRequest: an across area whose page pointer
// is repointed at a foreign page must fail the shadow check of a request
// whose first run — the normally mapped head of the page — is healthy.
func TestShadowDetectsCorruptAreaMidRequest(t *testing.T) {
	conf := smallConf()
	s, err := acrossftl.New(&conf)
	if err != nil {
		t.Fatal(err)
	}
	spp := int64(conf.SectorsPerPage())
	now := 0.0
	for _, req := range []trace.Request{
		{Op: trace.OpWrite, Offset: 3 * spp, Count: int32(2 * spp)},           // pages 3 and 4
		{Op: trace.OpWrite, Offset: 3*spp + spp/2, Count: int32(3 * spp / 4)}, // an area keyed at 3
	} {
		if now, err = s.Write(req, now); err != nil {
			t.Fatal(err)
		}
	}
	idx := s.PMT.AIdxOf(3)
	if idx == mapping.NoAIdx {
		t.Fatal("the across write left no area keyed at page 3")
	}
	c, err := check.New(s, check.Options{Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Dev.ResetMeasurement()
	if err := c.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	both := trace.Request{Offset: 3 * spp, Count: int32(2 * spp)}
	appn := s.AMT.Get(idx).APPN
	s.AMT.SetAPPN(idx, s.PMT.PPNOf(3)) // the area now reads page 3's data
	for _, op := range []func(trace.Request) error{c.OnRead, c.OnWrite} {
		if err := op(both); err == nil || !strings.Contains(err.Error(), "misdirected") {
			t.Fatalf("shadow check of a request over a repointed area: %v", err)
		}
	}
	s.AMT.SetAPPN(idx, appn)
	if err := c.OnRead(both); err != nil {
		t.Fatalf("shadow check after repair: %v", err)
	}
}

// TestAuditDetectsDoubleOwnership: two logical pages claiming one flash page
// must fail the ownership sweep.
func TestAuditDetectsDoubleOwnership(t *testing.T) {
	s, c := writtenBaseline(t)
	p6 := s.PMT.PPNOf(6)
	old := s.PMT.PPNOf(7)
	s.PMT.SetPPN(7, p6)
	if err := c.Audit(); err == nil {
		t.Fatal("audit missed doubly owned page")
	}
	s.PMT.SetPPN(7, old)
}

// TestAuditDetectsOrphanPage: a valid flash page no mapping structure claims
// (the observable a missed invalidate or forgotten mapping install leaves
// behind) breaks the ownership bijection.
func TestAuditDetectsOrphanPage(t *testing.T) {
	s, c := writtenBaseline(t)
	seedOrphanPage(t, s.Dev.Array)
	if err := c.Audit(); err == nil {
		t.Fatal("audit missed an orphaned valid page")
	}
}

// seedOrphanPage programs a data-tagged page nobody owns into the lowest
// open block — the footprint of a write the mapping forgot.
func seedOrphanPage(t *testing.T, arr *flash.Array) {
	t.Helper()
	geo := arr.Geo
	for b := flash.BlockID(0); int64(b) < geo.TotalBlocks(); b++ {
		wp := arr.WritePtr(b)
		if wp == 0 || wp >= geo.PagesPerBlock {
			continue
		}
		ppn := geo.FirstPage(b) + flash.PPN(wp)
		if err := arr.Program(ppn, flash.Tag{Kind: ftl.TagData, Key: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Skip("no open block to seed the orphan page into")
}

// TestAuditCatchesUnattributedFlashOps: array operations that bypass the
// Device's counter attribution break the accounting identity.
func TestAuditCatchesUnattributedFlashOps(t *testing.T) {
	s, c := writtenBaseline(t)
	// One read straight at the array: real code must go through ftl.Device.
	if err := s.Dev.Array.Read(s.PMT.PPNOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err == nil || !strings.Contains(err.Error(), "reads") {
		t.Fatalf("audit on unattributed read: %v", err)
	}
}
