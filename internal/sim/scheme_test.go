package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestSchemeTable holds every entry of the scheme table to what the table
// promises: it parses from its name, builds on the fixture geometry with and
// without a host cache, replays, and is refused by Recover (which
// across.RecoverFromCrash is) with ErrRecoveryUnsupported exactly when it
// has no recover function — a recovered runner keeps its cache size.
func TestSchemeTable(t *testing.T) {
	for i, kind := range Kinds() {
		if schemes[i].kind != kind {
			t.Fatalf("table entry %d is %s, want Kinds' %s first", i, schemes[i].kind, kind)
		}
	}
	reqs := smallTrace(t, 0.002)
	for _, e := range schemes {
		t.Run(string(e.kind), func(t *testing.T) {
			if kind, err := ParseKind(string(e.kind)); err != nil || kind != e.kind {
				t.Fatalf("ParseKind(%q) = (%q, %v)", e.kind, kind, err)
			}
			for _, cachePages := range []int{0, 16} {
				r, err := NewRunnerWithHostCache(e.kind, smallConf(), cachePages)
				if err != nil {
					t.Fatal(err)
				}
				if got := cachePagesOf(r.Scheme); got != cachePages {
					t.Fatalf("built with %d cache pages, stack %s has %d", cachePages, r.Scheme.Name(), got)
				}
				if _, err := r.Replay(reqs); err != nil {
					t.Fatal(err)
				}
				rec, err := Recover(r)
				if refused := errors.Is(err, ErrRecoveryUnsupported); refused != (e.recover == nil) {
					t.Fatalf("cache %d: Recover = %v; refused %v, want %v", cachePages, err, refused, e.recover == nil)
				}
				if e.recover == nil {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if rec.Kind != e.kind || cachePagesOf(rec.Scheme) != cachePages {
					t.Fatalf("recovered %s with %d cache pages, want %s with %d", rec.Kind, cachePagesOf(rec.Scheme), e.kind, cachePages)
				}
			}
		})
	}
	if _, err := ParseKind("LISA"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("ParseKind(LISA) = %v, want an unknown-scheme error", err)
	}
}
