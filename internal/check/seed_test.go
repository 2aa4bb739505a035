package check_test

import (
	"slices"
	"testing"

	"across/internal/acrossftl"
	"across/internal/check"
	"across/internal/ftl"
	"across/internal/hostcache"
	"across/internal/obs"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// resolver finds s's SectorResolver, beneath a host cache if s is one.
func resolver(t testing.TB, s ftl.Scheme) check.SectorResolver {
	t.Helper()
	res, ok := ftl.As[check.SectorResolver](s)
	if !ok {
		t.Fatalf("%s resolves no sectors", s.Name())
	}
	return res
}

// perSector resolves every logical sector with its own ResolveRun call,
// keeping only the source: the oracle the bulk seed
// (SectorResolver.VisitWritten) and the run ends (SectorResolver.ResolveRun)
// are pinned to. It also counts what the state under test contains, so a
// scenario cannot pass vacuously.
func perSector(t testing.TB, s ftl.Scheme) (srcs []ftl.SectorSource, buffered, inAreas int) {
	t.Helper()
	res := resolver(t, s)
	srcs = make([]ftl.SectorSource, s.Device().Conf.LogicalSectors())
	for sec := range srcs {
		src, _, err := res.ResolveRun(int64(sec))
		if err != nil {
			t.Fatalf("resolving sector %d: %v", sec, err)
		}
		srcs[sec] = src
		if src.Kind == ftl.SrcBuffered {
			buffered++
		}
		if src.Tag.Kind == ftl.TagAcross {
			inAreas++
		}
	}
	return srcs, buffered, inAreas
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
	srcs, buffered, inAreas := perSector(t, s)
	want := make([]uint64, (len(srcs)+63)/64)
	for sec, src := range srcs {
		if src.Kind != ftl.SrcUnwritten {
			want[sec>>6] |= 1 << uint(sec&63)
		}
	}
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

// runsAgree checks ResolveRun at every sector against the oracle: the run is
// not empty, and it ends no later than the stretch of sectors that resolve to
// the same source as its first — which also keeps it on the device.
func runsAgree(t *testing.T, s ftl.Scheme) (buffered, inAreas int) {
	t.Helper()
	srcs, buffered, inAreas := perSector(t, s)
	n := int64(len(srcs))
	// stretch[sec] is the end of the longest run from sec resolving like sec.
	stretch := make([]int64, n)
	for sec := n - 1; sec >= 0; sec-- {
		stretch[sec] = sec + 1
		if sec+1 < n && srcs[sec+1] == srcs[sec] {
			stretch[sec] = stretch[sec+1]
		}
	}
	res := resolver(t, s)
	for sec := int64(0); sec < n; sec++ {
		_, end, err := res.ResolveRun(sec)
		if err != nil {
			t.Fatalf("ResolveRun(%d): %v", sec, err)
		}
		if end <= sec || end > stretch[sec] {
			t.Fatalf("ResolveRun(%d) ends at %d; sectors %d..%d resolve to %+v",
				sec, end, sec, stretch[sec]-1, srcs[sec])
		}
	}
	for _, sec := range []int64{-1, n} {
		if _, _, err := res.ResolveRun(sec); err == nil {
			t.Fatalf("ResolveRun(%d) outside a %d-sector device did not fail", sec, n)
		}
	}
	return buffered, inAreas
}

// eachResolverState runs agree on every scheme and a hostcache-wrapped one,
// in each state resolution must be right in: a fresh device, an aged one,
// mid-replay (MRSM sub-pages still in the pack buffer, live Across-FTL areas)
// and after crash recovery where the scheme has it. agree reports how many
// sectors resolve to the pack buffer and to areas, so those cases cannot
// pass vacuously.
func eachResolverState(t *testing.T, agree func(*testing.T, ftl.Scheme) (buffered, inAreas int)) {
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
			agree(t, r.Scheme) // (a) fresh

			if err := r.Age(sim.DefaultAging()); err != nil {
				t.Fatal(err)
			}
			agree(t, r.Scheme) // (b) aged

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
			buffered, inAreas := agree(t, r.Scheme)
			for i := int64(1); v.kind == sim.KindMRSM && buffered == 0 && i < 64; i++ {
				write(trace.Request{Op: trace.OpWrite, Offset: i * 1000, Count: 1})
				buffered, _ = agree(t, r.Scheme)
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
				agree(t, rec)
			case sim.KindAcross:
				rec, err := acrossftl.Recover(inner.Device())
				if err != nil {
					t.Fatal(err)
				}
				if _, inAreas := agree(t, rec); inAreas == 0 {
					t.Error("recovery kept no across area; the recovered case is vacuous")
				}
			}
		})
	}
}

// TestShadowSeedMatchesResolveSector pins the bulk seed to the per-sector
// resolution (perSector).
func TestShadowSeedMatchesResolveSector(t *testing.T) { eachResolverState(t, seedsAgree) }

// TestResolveRunMatchesResolveSector pins every run ResolveRun claims to the
// per-sector resolution it stands for in the shadow model.
func TestResolveRunMatchesResolveSector(t *testing.T) { eachResolverState(t, runsAgree) }

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

// BenchmarkCheckedReplay times the replay a checked study runs — the first
// tenth of lun1 ×0.4 on an aged Experiment device — per scheme, five ways:
// plain; checked, i.e. the shadow model on every request plus the end-of-run
// audit a checked replay always ends with; sampled on acrossd's 50 ms grid,
// the replay every single-device acrossd job runs; checked and sampled, the
// replay of the benchmark module's study-cold workload; and the audit
// alone. Every replay starts from its own fork of the aged device.
func BenchmarkCheckedReplay(b *testing.B) {
	conf := ssdconf.Experiment()
	lun1, err := workload.LunProfile("lun1")
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(lun1.Scale(0.4), conf.LogicalSectors())
	if err != nil {
		b.Fatal(err)
	}
	reqs = reqs[:len(reqs)/10]
	for _, kind := range sim.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			r, err := sim.NewRunner(kind, conf)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Age(sim.DefaultAging()); err != nil {
				b.Fatal(err)
			}
			aged, err := r.Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			fork := func(b *testing.B) *sim.Runner {
				b.StopTimer()
				defer b.StartTimer()
				r, err := aged.Fork()
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			replay := func(b *testing.B, opts *check.Options, sampled bool) {
				for i := 0; i < b.N; i++ {
					r := fork(b)
					if opts != nil {
						if _, err := r.EnableChecks(*opts); err != nil {
							b.Fatal(err)
						}
					}
					if sampled {
						smp, err := obs.NewSampler(50)
						if err != nil {
							b.Fatal(err)
						}
						r.SetSampler(smp)
					}
					if _, err := r.Replay(reqs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
			}
			shadow := &check.Options{Shadow: true}
			b.Run("plain", func(b *testing.B) { replay(b, nil, false) })
			b.Run("checked", func(b *testing.B) { replay(b, shadow, false) })
			b.Run("sampled", func(b *testing.B) { replay(b, nil, true) })
			b.Run("checked+sampled", func(b *testing.B) { replay(b, shadow, true) })
			b.Run("audit", func(b *testing.B) {
				r := fork(b)
				if _, err := r.Replay(reqs); err != nil {
					b.Fatal(err)
				}
				c, err := check.New(r.Scheme, check.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Audit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAudit prices one device-wide audit per scheme on a freshly aged
// device of each size the ledger restores: the Experiment device and the
// 8 GiB one of the gc-churn workload. Every sim.Restore runs this audit.
func BenchmarkAudit(b *testing.B) {
	for _, dev := range []struct {
		name string
		conf ssdconf.Config
	}{{"Experiment", ssdconf.Experiment()}, {"Scaled16", ssdconf.Scaled(16)}} {
		for _, kind := range allKinds() {
			b.Run(dev.name+"/"+string(kind), func(b *testing.B) {
				r, err := sim.NewRunner(kind, dev.conf)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Age(sim.DefaultAging()); err != nil {
					b.Fatal(err)
				}
				c, err := check.New(r.Scheme, check.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Audit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
