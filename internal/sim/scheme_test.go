package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestSchemeTable holds every entry of the scheme table to what the table
// promises: it parses from its name, builds on the fixture geometry,
// replays, and is refused by Recover (which across.RecoverFromCrash is) with
// ErrRecoveryUnsupported exactly when it has no recover function.
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
			r, err := NewRunner(e.kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Replay(reqs); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(r)
			if refused := errors.Is(err, ErrRecoveryUnsupported); refused != (e.recover == nil) {
				t.Fatalf("Recover = %v; refused %v, want %v", err, refused, e.recover == nil)
			}
			if e.recover == nil {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec.Kind != e.kind {
				t.Fatalf("recovered %s, want %s", rec.Kind, e.kind)
			}
		})
	}
	if _, err := ParseKind("LISA"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("ParseKind(LISA) = %v, want an unknown-scheme error", err)
	}
}
