// Package sim is the replay engine: it ages a simulated SSD the way §4.1
// prescribes (90% of capacity used, ~39.8% valid after warm-up), replays a
// block trace against one of the three FTL schemes, and collects the metrics
// every figure of the evaluation is built from — per-request response times
// split by direction and alignment class, flash read/write/erase counts
// split into Map and Data components, DRAM accesses, and mapping-table
// footprints.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"across/internal/acrossftl"
	"across/internal/ftl"
	"across/internal/mrsm"
	"across/internal/ssdconf"
)

// SchemeKind selects one of the compared FTL designs.
type SchemeKind string

const (
	// KindFTL is the conventional page-level mapping baseline.
	KindFTL SchemeKind = "FTL"
	// KindMRSM is the sub-page multiregional comparator.
	KindMRSM SchemeKind = "MRSM"
	// KindAcross is the paper's Across-FTL.
	KindAcross SchemeKind = "Across-FTL"
	// KindDFTL is a demand-paged page-mapping baseline — an extension
	// scheme outside the paper's comparison (see ftl.DFTL).
	KindDFTL SchemeKind = "DFTL"
)

// schemeEntry is one row of the scheme table.
type schemeEntry struct {
	kind  SchemeKind
	build func(*ssdconf.Config) (ftl.Scheme, error)
	// recover rebuilds the scheme's mapping from a crashed device's flash;
	// nil when the scheme cannot (Recover refuses it).
	recover func(*ftl.Device) (ftl.Scheme, error)
	// cmtInResult puts the scheme's mapping-cache census in Result.CMT. DFTL
	// has a CMT too, but its Result.CMT has always been zero and recorded
	// result digests cover it; its hit rate reaches the sampler all the same.
	cmtInResult bool
}

// schemes is the one place a scheme is named: NewScheme, ParseKind and
// crash recovery all read it, and everything else finds what a scheme can do
// by interface. The paper's three come first, in Kinds' order.
var schemes = []schemeEntry{
	{kind: KindFTL, build: asScheme(ftl.NewBaseline), recover: asScheme(ftl.RecoverBaseline)},
	{kind: KindMRSM, build: asScheme(mrsm.New), cmtInResult: true},
	{kind: KindAcross, build: asScheme(acrossftl.New), recover: asScheme(acrossftl.Recover), cmtInResult: true},
	{kind: KindDFTL, build: asScheme(ftl.NewDFTL)},
}

// asScheme adapts a constructor returning a concrete scheme to the table's
// ftl.Scheme signature, keeping a failed constructor's result a nil interface.
func asScheme[A any, S ftl.Scheme](f func(A) (S, error)) func(A) (ftl.Scheme, error) {
	return func(a A) (ftl.Scheme, error) {
		s, err := f(a)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// Kinds returns the comparison order used in every figure.
func Kinds() []SchemeKind { return []SchemeKind{KindFTL, KindMRSM, KindAcross} }

// ParseKind returns the kind a scheme name (as KindList spells it) selects.
func ParseKind(name string) (SchemeKind, error) {
	if e, ok := entryOf(SchemeKind(name)); ok {
		return e.kind, nil
	}
	return "", fmt.Errorf("unknown scheme %q (want %s)", name, KindList(", "))
}

// KindList joins the table's scheme names with sep, for usage text: the
// paper's three in Kinds' order, then the extensions.
func KindList(sep string) string {
	names := make([]string, len(schemes))
	for i, e := range schemes {
		names[i] = string(e.kind)
	}
	return strings.Join(names, sep)
}

func entryOf(kind SchemeKind) (schemeEntry, bool) {
	for _, e := range schemes {
		if e.kind == kind {
			return e, true
		}
	}
	return schemeEntry{}, false
}

// ErrRecoveryUnsupported is the error Recover wraps for a scheme that cannot
// rebuild its mapping from flash alone; test for it with errors.Is.
var ErrRecoveryUnsupported = errors.New("sim: crash recovery is not implemented")

// NewScheme constructs the scheme on a fresh device.
func NewScheme(kind SchemeKind, conf *ssdconf.Config) (ftl.Scheme, error) {
	return newStack(kind, conf, nil)
}

// newStack builds every scheme there is: kind's scheme on a fresh device for
// conf or, given a crashed device, rebuilt from its flash.
func newStack(kind SchemeKind, conf *ssdconf.Config, crashed *ftl.Device) (ftl.Scheme, error) {
	e, ok := entryOf(kind)
	if !ok {
		return nil, fmt.Errorf("sim: unknown scheme kind %q", kind)
	}
	switch {
	case crashed == nil:
		return e.build(conf)
	case e.recover == nil:
		return nil, fmt.Errorf("%w for %s", ErrRecoveryUnsupported, kind)
	default:
		return e.recover(crashed)
	}
}

// Recover simulates power loss on r's device and remounts it: all in-DRAM
// mapping state is discarded and rebuilt from the flash array's out-of-band
// metadata. A scheme without a recover function fails with
// ErrRecoveryUnsupported and r is left untouched; otherwise the returned
// runner owns the same physical device and r must not be used.
func Recover(r *Runner) (*Runner, error) {
	s, err := newStack(r.Kind, r.Conf, r.Scheme.Device())
	if err != nil {
		return nil, err
	}
	return &Runner{Conf: r.Conf, Kind: r.Kind, Scheme: s}, nil
}
