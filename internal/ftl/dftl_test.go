package ftl

import (
	"math/rand"
	"testing"

	"across/internal/flash"
	"across/internal/ssdconf"
	"across/internal/trace"
)

func tinyDFTL(t *testing.T, resident int) (*DFTL, *ssdconf.Config) {
	t.Helper()
	c := ssdconf.Tiny()
	s, err := NewDFTLWithCache(&c, resident)
	if err != nil {
		t.Fatalf("NewDFTL: %v", err)
	}
	return s, &c
}

func TestDFTLDataPathMatchesBaseline(t *testing.T) {
	// With a cache large enough to never miss, DFTL's flash data ops equal
	// the baseline's exactly (the data path is shared).
	c := ssdconf.Tiny()
	base, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	dftl, _ := tinyDFTL(t, 1024)
	rng := rand.New(rand.NewSource(2))
	region := c.LogicalSectors() / 2
	for i := 0; i < 1500; i++ {
		off := rng.Int63n(region - 40)
		count := int32(rng.Intn(32) + 1)
		now := float64(i)
		var r trace.Request
		if rng.Intn(2) == 0 {
			r = trace.Request{Op: trace.OpWrite, Offset: off, Count: count, Time: now}
			if _, err := base.Write(r, now); err != nil {
				t.Fatal(err)
			}
			if _, err := dftl.Write(r, now); err != nil {
				t.Fatal(err)
			}
		} else {
			r = trace.Request{Op: trace.OpRead, Offset: off, Count: count, Time: now}
			if _, err := base.Read(r, now); err != nil {
				t.Fatal(err)
			}
			if _, err := dftl.Read(r, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if base.Dev.Count.DataWrites != dftl.Dev.Count.DataWrites {
		t.Errorf("data writes differ: baseline %d, DFTL %d",
			base.Dev.Count.DataWrites, dftl.Dev.Count.DataWrites)
	}
	if base.Dev.Count.DataReads != dftl.Dev.Count.DataReads {
		t.Errorf("data reads differ: baseline %d, DFTL %d",
			base.Dev.Count.DataReads, dftl.Dev.Count.DataReads)
	}
	if dftl.Dev.Count.MapWrites != 0 {
		t.Errorf("all-resident DFTL produced %d map writes", dftl.Dev.Count.MapWrites)
	}
}

func TestDFTLSpillsUnderCachePressure(t *testing.T) {
	s, c := tinyDFTL(t, 2) // two resident translation pages
	// Tiny config: 1024 entries per translation page covers all 224 LPNs in
	// one page, so shrink the grouping via a bigger entry to force spread.
	_ = c
	// Scatter writes over the whole logical space; with only 2 resident
	// pages and 1 total translation page the cache never spills on Tiny.
	// Use a config with small pages to get several translation pages.
	c2 := ssdconf.Tiny()
	c2.MapEntryBytes = 512 // 16 entries per translation page
	s2, err := NewDFTLWithCache(&c2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		off := rng.Int63n(c2.LogicalSectors()/2-16) / 16 * 16
		if _, err := s2.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Dev.Count.MapWrites == 0 || s2.Dev.Count.MapReads == 0 {
		t.Fatalf("no map traffic under pressure: %+v", s2.Dev.Count)
	}
	st := s2.CMTStats()
	if st.Misses == 0 {
		t.Fatal("no CMT misses recorded")
	}
	s2.ResetStats()
	if s2.CMTStats().Lookups != 0 {
		t.Fatal("ResetStats did not clear")
	}
	_ = s
}

func TestDFTLTableBytesEqualsBaseline(t *testing.T) {
	c := ssdconf.Tiny()
	base, _ := NewBaseline(&c)
	dftl, _ := NewDFTL(&c)
	if base.TableBytes() != dftl.TableBytes() {
		t.Fatalf("table sizes differ: %d vs %d", base.TableBytes(), dftl.TableBytes())
	}
	if dftl.Name() != "DFTL" {
		t.Fatal("name mismatch")
	}
}

func TestDFTLSurvivesGCChurn(t *testing.T) {
	c := ssdconf.Tiny()
	c.MapEntryBytes = 512
	s, err := NewDFTLWithCache(&c, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pages := c.LogicalSectors() / 16 / 2
	for i := 0; i < 5000; i++ {
		lpn := rng.Int63n(pages)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if s.Dev.Count.Erases == 0 {
		t.Fatal("no GC under churn")
	}
	// Everything still readable.
	for lpn := int64(0); lpn < 8; lpn++ {
		if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: lpn * 16, Count: 16}, 1e7); err != nil {
			t.Fatalf("read after churn: %v", err)
		}
	}
}

func TestDFTLRejectsInvalidRequests(t *testing.T) {
	s, c := tinyDFTL(t, 4)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: c.LogicalSectors(), Count: 4}, 0); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 0}, 0); err == nil {
		t.Fatal("zero-count read accepted")
	}
}

func TestBaselineRecoveryInPackage(t *testing.T) {
	c := ssdconf.Tiny()
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 6; lpn++ {
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Partial write leaves stale + a partially filled block.
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 4}, 1); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverBaseline(s.Dev)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 6; lpn++ {
		if rec.PMT.PPNOf(lpn) != s.PMT.PPNOf(lpn) {
			t.Fatalf("lpn %d mapping lost", lpn)
		}
	}
	if rec.Device() != s.Dev {
		t.Fatal("recovered scheme does not own the same device")
	}
	// Allocator accessors over the recovered pools.
	var free int64
	for pl := 0; pl < rec.Dev.Array.Geo.Planes; pl++ {
		free += rec.Al.FreePages(flash.PlaneID(pl))
	}
	if free != rec.Al.TotalFreePages() {
		t.Fatal("per-plane free pages do not sum to total")
	}
	// Salvage hook installation is a no-op for the baseline but must not
	// disturb subsequent GC.
	rec.Al.SetSalvage(nil)
	churn(t, rec, &c, 3000, 19)
	if rec.Dev.Count.Erases == 0 {
		t.Fatal("no GC after recovery")
	}
}
