package check_test

import (
	"slices"
	"testing"

	"across/internal/acrossftl"
	"across/internal/check"
	"across/internal/ftl"
	"across/internal/hostcache"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// perSectorSeed is the seeding loop BeginReplay used to run: one
// ResolveSector call per logical sector. It is the oracle the bulk seed
// (SectorResolver.VisitWritten) is pinned to. It also counts what the state
// under test contains, so a scenario cannot pass vacuously.
func perSectorSeed(t testing.TB, s ftl.Scheme) (written []uint64, buffered, inAreas int) {
	t.Helper()
	res := s.(check.SectorResolver)
	n := s.Device().Conf.LogicalSectors()
	written = make([]uint64, (n+63)/64)
	for sec := int64(0); sec < n; sec++ {
		src, err := res.ResolveSector(sec)
		if err != nil {
			t.Fatalf("seeding shadow model: %v", err)
		}
		if src.Kind != ftl.SrcUnwritten {
			written[sec>>6] |= 1 << uint(sec&63)
		}
		if src.Kind == ftl.SrcBuffered {
			buffered++
		}
		if src.Tag.Kind == ftl.TagAcross {
			inAreas++
		}
	}
	return written, buffered, inAreas
}

// seedsAgree arms a fresh checker on s and compares its bitset with the
// oracle's, bit for bit.
func seedsAgree(t *testing.T, s ftl.Scheme) (buffered, inAreas int) {
	t.Helper()
	c, err := check.New(s, check.Options{Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	want, buffered, inAreas := perSectorSeed(t, s)
	if got := c.Written(); !slices.Equal(got, want) {
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("bulk seed differs from the per-sector seed at sectors %d..%d: %#x, want %#x",
					w*64, w*64+63, got[w], want[w])
			}
		}
		t.Fatalf("bulk seed has %d words, per-sector seed %d", len(got), len(want))
	}
	return buffered, inAreas
}

// TestShadowSeedMatchesResolveSector pins the bulk seed to the resolver for
// every scheme and a hostcache-wrapped one: on a fresh device, an aged one,
// mid-replay (MRSM sub-pages still in the pack buffer, live Across-FTL
// areas) and after crash recovery where the scheme has it.
func TestShadowSeedMatchesResolveSector(t *testing.T) {
	type variant struct {
		name string
		kind sim.SchemeKind
		wrap bool
	}
	variants := []variant{{name: "hostcache/" + string(sim.KindAcross), kind: sim.KindAcross, wrap: true}}
	for _, k := range allKinds() {
		variants = append(variants, variant{name: string(k), kind: k})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			conf := smallConf()
			inner, err := sim.NewScheme(v.kind, &conf)
			if err != nil {
				t.Fatal(err)
			}
			r := &sim.Runner{Conf: &conf, Kind: v.kind, Scheme: inner}
			if v.wrap {
				r.Scheme = hostcache.Wrap(inner, 64)
			}
			seedsAgree(t, r.Scheme) // (a) fresh

			if err := r.Age(sim.DefaultAging()); err != nil {
				t.Fatal(err)
			}
			seedsAgree(t, r.Scheme) // (b) aged

			// (c) mid-replay: requests straight at the scheme, so nothing
			// flushes MRSM's pack buffer behind the last one.
			now := 0.0
			write := func(req trace.Request) {
				t.Helper()
				var err error
				if req.Op == trace.OpWrite {
					now, err = r.Scheme.Write(req, now)
				} else {
					now, err = r.Scheme.Read(req, now)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, req := range smallTrace(t, 5, 0.05) {
				write(req)
			}
			buffered, inAreas := seedsAgree(t, r.Scheme)
			for i := int64(1); v.kind == sim.KindMRSM && buffered == 0 && i < 64; i++ {
				write(trace.Request{Op: trace.OpWrite, Offset: i * 1000, Count: 1})
				buffered, _ = seedsAgree(t, r.Scheme)
			}
			if v.kind == sim.KindMRSM && buffered == 0 {
				t.Error("no sector resolves to the pack buffer; the mid-replay case is vacuous")
			}
			if v.kind == sim.KindAcross && inAreas == 0 {
				t.Error("no sector resolves to an across area; the mid-replay case is vacuous")
			}

			// (d) power loss: DRAM state dropped, scheme rebuilt from flash.
			switch v.kind {
			case sim.KindFTL:
				rec, err := ftl.RecoverBaseline(inner.Device())
				if err != nil {
					t.Fatal(err)
				}
				seedsAgree(t, rec)
			case sim.KindAcross:
				rec, err := acrossftl.Recover(inner.Device())
				if err != nil {
					t.Fatal(err)
				}
				if _, inAreas := seedsAgree(t, rec); inAreas == 0 {
					t.Error("recovery kept no across area; the recovered case is vacuous")
				}
			}
		})
	}
}

// BenchmarkShadowSeed times arming the checker (BeginReplay: the shadow seed
// plus the per-block baselines) on an aged Experiment device.
func BenchmarkShadowSeed(b *testing.B) {
	for _, kind := range sim.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			r, err := sim.NewRunner(kind, ssdconf.Experiment())
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Age(sim.DefaultAging()); err != nil {
				b.Fatal(err)
			}
			c, err := check.New(r.Scheme, check.Options{Shadow: true})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(r.Conf.LogicalSectors() / 8) // the bitset seeded
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.BeginReplay(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
