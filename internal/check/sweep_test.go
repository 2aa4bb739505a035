package check

import (
	"strings"
	"testing"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// TestOwnershipSweepRefusesBadClaims hands the ownership sweep the claims a
// tag-checked mapping walk can never make — a page off the device, a page
// that is not valid, a page claimed twice — and requires each refused by
// name, and an audit whose claims double-count a page to fail even when the
// claims cover every valid page.
func TestOwnershipSweepRefusesBadClaims(t *testing.T) {
	conf := ssdconf.Tiny()
	s, err := ftl.NewBaseline(&conf)
	if err != nil {
		t.Fatal(err)
	}
	spp := int32(conf.SectorsPerPage())
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Count: 2 * spp}, 0); err != nil {
		t.Fatal(err)
	}
	c, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatalf("audit of a healthy device: %v", err)
	}
	arr := s.Dev.Array
	p0, b := s.PMT.PPNOf(0), arr.Geo.BlockOf(s.PMT.PPNOf(1))
	free := arr.Geo.FirstPage(b) + flash.PPN(arr.WritePtr(b))
	claim := c.claims[0]
	clear(c.owned)
	for _, tc := range []struct {
		p    flash.PPN
		want string
	}{
		{p0, ""},
		{p0, "owned twice"},
		{flash.PPN(conf.PagesTotal()), "out of range"},
		{free, "is free"},
	} {
		err := claim(tc.p)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("claim(%d) = %v, want %q", tc.p, err, tc.want)
		}
	}

	// Claims that reach every valid page but one of them twice: the count
	// matches the valid pages, only the bitset sees the double claim.
	c.aud = doubleClaim{s}
	if err := c.Audit(); err == nil || !strings.Contains(err.Error(), "owned twice") {
		t.Fatalf("audit over a double claim: %v", err)
	}
}

// doubleClaim audits like the baseline FTL and then claims its first page
// again.
type doubleClaim struct{ *ftl.Baseline }

func (d doubleClaim) AuditMapping(claim ...ftl.Claim) error {
	if err := d.Baseline.AuditMapping(claim...); err != nil {
		return err
	}
	return ftl.ClaimOf(claim)(d.PMT.PPNOf(0))
}
