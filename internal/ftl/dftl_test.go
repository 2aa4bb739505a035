package ftl

import (
	"math/rand"
	"testing"

	"across/internal/flash"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

func tinyDFTL(t *testing.T, resident int) (*Baseline, *ssdconf.Config) {
	t.Helper()
	c := ssdconf.Tiny()
	s, err := NewDFTLWithCache(&c, resident)
	if err != nil {
		t.Fatalf("NewDFTL: %v", err)
	}
	return s, &c
}

// On Tiny one translation page holds all 224 PMT entries, so the cache
// never spills; 512-byte entries put 16 to a page and two resident pages
// keep most of the table in flash.
func TestDFTLSpillsUnderCachePressure(t *testing.T) {
	c := ssdconf.Tiny()
	c.MapEntryBytes = 512 // 16 entries per translation page
	s, err := NewDFTLWithCache(&c, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		off := rng.Int63n(c.LogicalSectors()/2-16) / 16 * 16
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Dev.Count.MapWrites == 0 || s.Dev.Count.MapReads == 0 {
		t.Fatalf("no map traffic under pressure: %+v", s.Dev.Count)
	}
	st := s.CMTStats()
	if st.Misses == 0 {
		t.Fatal("no CMT misses recorded")
	}
	s.ResetStats()
	if s.CMTStats().Lookups != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// flashLog records the flash commands a device serves.
type flashLog struct {
	obs.Nop
	ops []flashCmd
}

type flashCmd struct {
	op          obs.FlashOpKind
	class       OpClass
	start, done float64
}

func (l *flashLog) FlashOp(op obs.FlashOpKind, class uint8, _ int, _ int64, start, done float64) {
	l.ops = append(l.ops, flashCmd{op, OpClass(class), start, done})
}

// TestDFTLRMWReadWaitsForItsMapLoad: a partial write whose translation page
// must first come back from flash starts its RMW read only once that load
// has been read and transferred, since the entry names the page to read.
func TestDFTLRMWReadWaitsForItsMapLoad(t *testing.T) {
	c := ssdconf.Tiny()
	c.MapEntryBytes = 512 // 16 entries per translation page
	c.TransferTime = 0.01
	s, err := NewDFTLWithCache(&c, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Writing LPNs 0, 16, 32 and 48 flushes translation pages 0 and 1;
	// reading LPNs 64 and 80 flushes 2 and 3, leaving two clean pages
	// resident, so the next miss costs a load and no flush.
	for i, lpn := range []int64{0, 16, 32, 48} {
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, lpn := range []int64{64, 80} {
		if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: lpn * 16, Count: 16}, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	log := &flashLog{}
	s.Dev.SetTracer(log)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 4, Count: 4}, 1000); err != nil {
		t.Fatal(err)
	}
	if len(log.ops) != 3 || log.ops[0].class != OpMap || log.ops[1].class != OpData || log.ops[1].op != obs.FlashRead {
		t.Fatalf("flash commands %+v, want a map load, an RMW read and a program", log.ops)
	}
	if load, rmw := log.ops[0], log.ops[1]; rmw.start < load.done+c.TransferTime {
		t.Errorf("RMW read started at %g, before its map load was usable at %g", rmw.start, load.done+c.TransferTime)
	}
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
