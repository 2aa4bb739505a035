// Package mapping implements the address-translation data structures of the
// paper: the page mapping table (PMT) shared by all schemes — extended with
// the AIdx sidecar that Across-FTL adds (§3.2) — and the across-page mapping
// table (AMT) that records remapped across-page areas.
package mapping

import (
	"fmt"
	"unsafe"

	"across/internal/flash"
)

// NoAIdx marks a PMT entry whose logical page has no across-page remapping
// ("-1" in the paper).
const NoAIdx int32 = -1

// PMTEntry is one logical page's translation state, as Get reports it.
type PMTEntry struct {
	PPN  flash.PPN // current physical page (NilPPN if never written)
	AIdx int32     // index into the AMT, or NoAIdx
}

// PMT is the page mapping table: a dense table indexed by LPN, stored as
// two 32-bit columns. The AIdx column — the first level of Across-FTL's
// two-level table — is allocated by the first SetAIdx, so the baseline FTL,
// DFTL and MRSM, which never call it, pay 4 bytes a page (DESIGN §7).
type PMT struct {
	ppn  []int32
	aidx []int32 // nil until the first SetAIdx; nil reads as NoAIdx everywhere
}

// NewPMT creates a PMT for n logical pages, all unmapped.
func NewPMT(n int64) *PMT {
	t := &PMT{ppn: make([]int32, n)}
	fillNeg1(t.ppn)
	return t
}

// fillNeg1 sets every element to -1 (NilPPN and NoAIdx alike), by doubling
// copies: a fork builds these columns per job, and memmove fills them
// several times faster than a store per element.
func fillNeg1(col []int32) {
	if len(col) == 0 {
		return
	}
	col[0] = -1
	for n := 1; n < len(col); n *= 2 {
		copy(col[n:], col[:n])
	}
}

// Len returns the number of logical pages.
func (t *PMT) Len() int64 { return int64(len(t.ppn)) }

// check panics unless lpn indexes the table. One unsigned compare covers a
// negative lpn too, and the panic value formats its message only when it is
// printed, so that check costs the inliner a compare and PPNOf, AIdxOf and
// Get inline into every PMT walk (a call, even to an out-of-line helper,
// costs 57 of the budget's 80).
func (t *PMT) check(lpn int64) {
	if uint64(lpn) >= uint64(len(t.ppn)) {
		panic(lpnRangeError{lpn, len(t.ppn)})
	}
}

// lpnRangeError is check's panic value.
type lpnRangeError struct {
	lpn int64
	n   int
}

// Error formats the panic message, once the panic is printed.
func (e lpnRangeError) Error() string {
	return fmt.Sprintf("mapping: LPN %d out of range [0,%d)", e.lpn, e.n)
}

// Get returns the entry for an LPN.
func (t *PMT) Get(lpn int64) PMTEntry {
	return PMTEntry{PPN: t.PPNOf(lpn), AIdx: t.AIdxOf(lpn)}
}

// Prefetch hints the lines that hold lpn's entry, in both columns, ahead of
// a lookup. It reads no entry, and an out-of-range lpn is ignored.
func (t *PMT) Prefetch(lpn int64) {
	if uint64(lpn) < uint64(len(t.ppn)) {
		flash.Prefetch(unsafe.Pointer(&t.ppn[lpn]))
		if t.aidx != nil {
			flash.Prefetch(unsafe.Pointer(&t.aidx[lpn]))
		}
	}
}

// PPNOf returns the mapped physical page of an LPN (NilPPN if unmapped).
func (t *PMT) PPNOf(lpn int64) flash.PPN {
	t.check(lpn)
	return flash.PPN(t.ppn[lpn])
}

// SetPPN updates the physical mapping of an LPN, returning the previous PPN
// so the caller can invalidate it. A PPN beyond 32 bits is a caller bug
// (flash.NewArray refuses such a device) and panics rather than truncating.
func (t *PMT) SetPPN(lpn int64, ppn flash.PPN) (old flash.PPN) {
	t.check(lpn)
	if flash.PPN(int32(ppn)) != ppn {
		panic(fmt.Sprintf("mapping: PPN %d does not fit the 32-bit table", ppn))
	}
	old = flash.PPN(t.ppn[lpn])
	t.ppn[lpn] = int32(ppn)
	return old
}

// AIdxOf returns the across-table index of an LPN (NoAIdx if not remapped).
func (t *PMT) AIdxOf(lpn int64) int32 {
	t.check(lpn)
	if t.aidx == nil {
		return NoAIdx
	}
	return t.aidx[lpn]
}

// SetAIdx points an LPN at an AMT entry.
func (t *PMT) SetAIdx(lpn int64, idx int32) {
	t.check(lpn)
	if t.aidx == nil {
		if idx == NoAIdx {
			return
		}
		t.aidx = make([]int32, len(t.ppn))
		fillNeg1(t.aidx)
	}
	t.aidx[lpn] = idx
}

// ClearAIdx removes an LPN's across-page remapping (used by ARollback).
func (t *PMT) ClearAIdx(lpn int64) { t.SetAIdx(lpn, NoAIdx) }

// MappedPages counts LPNs with a physical mapping; used by aging checks.
func (t *PMT) MappedPages() int64 {
	var n int64
	for _, p := range t.ppn {
		if flash.PPN(p) != flash.NilPPN {
			n++
		}
	}
	return n
}
