// Package check is the correctness-verification layer of the simulator: a
// pluggable subsystem that turns silent bookkeeping corruption — the failure
// mode a counters-only simulator cannot see — into hard errors. It has two
// halves:
//
//   - A device-wide invariant auditor (Checker.Audit) that generalises
//     acrossftl.Audit to every scheme: mapping→flash referential integrity,
//     per-block page-state/valid-count/write-pointer consistency, ownership
//     bijection (every valid flash page is owned by exactly one mapping
//     entry), allocator free-space accounting, write-pointer monotonicity,
//     and erase/program/read attribution identities between the flash array
//     and the Device counters.
//
//   - A data-integrity shadow model (Checker.OnWrite/OnRead) that tracks the
//     set of live logical sectors and verifies, on every host request, that
//     each written sector resolves to a live source whose OOB tag matches
//     the owner's claim — once per run of sectors that share a source
//     (SectorResolver.ResolveRun), not once per sector. The OOB tag plays
//     the role of a content fingerprint (the simulator carries no user
//     data): a lost write, a misdirected read, or a GC relocation that
//     corrupts a mapping all surface as a tag or liveness mismatch.
//
// Schemes opt in structurally: they implement Auditable and SectorResolver
// without importing this package (the SectorSource and Claim vocabulary
// lives in ftl). The sim engine drives an installed Checker behind nil
// guards, so the disabled path — the default — costs zero allocations and
// one branch per request, like the obs layer.
package check

import "across/internal/ftl"

// Auditable is a scheme whose mapping structures can be audited against the
// flash array. AuditMapping verifies scheme-internal referential integrity
// (every mapping entry references a valid, correctly tagged flash page) in
// one walk per table, and hands every flash page an entry was just verified
// to own to the claim it is given, once per entry. The checker's claim
// cross-checks those claims against the array's valid-page census to prove
// the ownership relation is a bijection. With no claim it audits the
// mapping alone.
type Auditable interface {
	ftl.Scheme
	AuditMapping(claim ...ftl.Claim) error
}

// SectorResolver is a scheme that can say where a logical sector's current
// contents live. Resolution must be side-effect-free: it may not touch
// caches, charge costs, or move data.
//
// ResolveRun is the one resolution path: the source of sec plus the
// exclusive end of a run [sec, end), end > sec and within the device, every
// sector of which resolves to a source equal to sec's. A run may stop short
// of the longest such stretch, never past it; schemes cut it where their
// source can change (a page, sub-page or area boundary).
//
// VisitWritten is the bulk form of "ResolveRun(sec)'s source is not
// SrcUnwritten": it calls fn with runs [start, end) whose union is exactly
// the sectors ResolveRun gives a source, reached the way ResolveRun reaches
// them.
// Runs may overlap, arrive in any order and extend past the device's last
// sector. It is observation only, like resolution, and has no error path.
type SectorResolver interface {
	ResolveRun(sec int64) (src ftl.SectorSource, end int64, err error)
	VisitWritten(fn func(start, end int64))
}

// Options configures a Checker.
type Options struct {
	// Shadow enables the data-integrity shadow model: per-sector liveness
	// tracking verified on every host read and write.
	Shadow bool
	// AuditEvery runs the device-wide audit every N host requests (0 = only
	// at the end of a replay). Audits are O(device), so small N on large
	// configs is slow — that is the point of making it a dial.
	AuditEvery int64
}
