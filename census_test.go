package across

import "testing"

// TestHostCacheKeepsSchemeCensus: a host data cache in front of a scheme
// must not hide the scheme's own figures. The Result still carries the
// Across-FTL census and the mapping-cache lookups of the scheme beneath the
// cache, and the sampler still sees its hit rate.
func TestHostCacheKeepsSchemeCensus(t *testing.T) {
	cfg := ScaledConfig(16)
	prof, err := Profile("lun1")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateTrace(prof.Scale(0.01), cfg.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	replay := func(s Scheme, smp *Sampler) *Result {
		t.Helper()
		r, err := NewRunnerWithHostCache(s, cfg, 64)
		if err != nil {
			t.Fatal(err)
		}
		r.SetSampler(smp)
		res, err := r.Replay(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	smp, err := NewSampler(50)
	if err != nil {
		t.Fatal(err)
	}
	a := replay(AcrossFTL, smp)
	if a.Across == nil || a.CMT.Lookups == 0 {
		t.Errorf("cached %s: Result.Across %v, %d CMT lookups; want the census and lookups > 0", a.Scheme, a.Across, a.CMT.Lookups)
	}
	samples := smp.Samples()
	if len(samples) == 0 || samples[len(samples)-1].CMTHitRate <= 0 {
		t.Errorf("cached %s: the closing sample reports no CMT hit rate (%d samples)", a.Scheme, len(samples))
	}
	if m := replay(MRSM, nil); m.CMT.Lookups == 0 {
		t.Errorf("cached %s: no CMT lookups in the Result", m.Scheme)
	}
}
