package flash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"across/internal/ssdconf"
)

// PageState is the lifecycle state of one physical page.
type PageState uint8

const (
	// PageFree: erased and programmable (subject to in-order programming).
	PageFree PageState = iota
	// PageValid: programmed and holding live data.
	PageValid
	// PageInvalid: programmed but superseded; space reclaimed only by erase.
	PageInvalid
)

// String implements fmt.Stringer for diagnostics.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// Errors returned by array operations. Schemes treat these as programming
// bugs (the FTL must never issue an illegal NAND command), so tests assert
// on them directly.
var (
	ErrProgramOutOfOrder  = errors.New("flash: program out of order within block")
	ErrProgramNotFree     = errors.New("flash: programming a non-free page")
	ErrReadUnwritten      = errors.New("flash: reading an unwritten page")
	ErrEraseWithValid     = errors.New("flash: erasing a block with valid pages")
	ErrInvalidateNotValid = errors.New("flash: invalidating a non-valid page")
	// ErrTagRange: a Kind above MaxKind or a Key beyond 32 bits, which the
	// packed page metadata cannot hold; the page is left free.
	ErrTagRange = errors.New("flash: tag outside the packed metadata's range")
	// ErrGeometryTooLarge: the per-page tables are indexed and keyed by
	// 32-bit integers (4 TiB at 8 KB pages, 256 times Table 1).
	ErrGeometryTooLarge = errors.New("flash: geometry exceeds the 32-bit table limit")
)

// CheckIndex32 refuses a table of n entries that 32-bit columns cannot
// index. Constructors call it before allocating.
func CheckIndex32(what string, n int64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: %d %s, limit %d", ErrGeometryTooLarge, n, what, math.MaxInt32)
	}
	return nil
}

// Tag is the out-of-band metadata programmed with a page. Garbage collection
// reads it back to find the owner of a live page so the owning mapping
// structure can be updated after migration, and power-loss recovery scans it
// to rebuild the mapping tables at mount time. The interpretation of the
// fields is up to the FTL scheme (see ftl.TagKind).
type Tag struct {
	Kind uint8 // owner namespace (data page, across-area page, map page, ...)
	Key  int64 // owner key within the namespace (LPN, AMT index, map page id)
	Aux  int64 // scheme-specific extra (Across-FTL packs LPN/Off/Size here)
}

// NilTag is what TagOf answers for a page that is free or invalid.
var NilTag = Tag{Kind: 0xFF, Key: -1}

// A page's metadata byte holds its state in the low two bits and its tag
// kind in the six above, which makes MaxKind the largest programmable Kind.
// The zero byte is a free page, so a fresh array needs no initialisation.
const (
	stateMask = 0b11
	kindShift = 2
	MaxKind   = 62
)

// Array is the NAND flash array: pure state machine, no timing. Timing and
// operation counting live in the ftl.Device facade so that the same array
// can be driven by warm-up (untimed) and measured phases.
//
// Storage is packed into device-wide columns indexed by PPN — a metadata
// byte, a 32-bit tag key, and a tag aux column that exists only once a page
// has been programmed with a non-zero Aux (only Across-FTL does) — plus
// three per-block arrays indexed by BlockID: 5 bytes a page, 13 with aux
// (DESIGN §7). Invalidate and Erase change the metadata byte alone: TagOf
// answers NilTag for a page that is not valid, so stale keys never show.
type Array struct {
	Geo Geometry

	meta []uint8 // per page: state | kind<<kindShift
	key  []int32 // per page: Tag.Key, meaningful while the page is valid
	aux  []int64 // per page: Tag.Aux; nil until the first non-zero Aux

	writePtr   []int32 // per block: next programmable page index
	validCount []int32 // per block: pages in PageValid
	eraseCount []int64 // per block: endurance metric

	erases   int64 // total erase operations (the paper's endurance metric)
	programs int64 // total program operations (audit accounting identity)
	reads    int64 // total read operations (audit accounting identity)

	vidx victimIndex // incrementally maintained GC victim index
}

// NewArray builds an erased flash array for the configuration.
func NewArray(c *ssdconf.Config) (*Array, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	geo := NewGeometry(c)
	if err := CheckIndex32("physical pages", geo.TotalPages()); err != nil {
		return nil, err
	}
	a := &Array{
		Geo:        geo,
		meta:       make([]uint8, geo.TotalPages()),
		key:        make([]int32, geo.TotalPages()),
		writePtr:   make([]int32, geo.TotalBlocks()),
		validCount: make([]int32, geo.TotalBlocks()),
		eraseCount: make([]int64, geo.TotalBlocks()),
	}
	a.vidx.init(&geo)
	return a, nil
}

// MustNewArray is NewArray for tests and examples with known-good configs.
func MustNewArray(c *ssdconf.Config) *Array {
	a, err := NewArray(c)
	if err != nil {
		panic(err)
	}
	return a
}

// State returns the state of a page.
func (a *Array) State(p PPN) PageState { return PageState(a.meta[p] & stateMask) }

// TagOf returns the OOB tag of a valid page, NilTag for any other.
func (a *Array) TagOf(p PPN) Tag {
	m := a.meta[p]
	if PageState(m&stateMask) != PageValid {
		return NilTag
	}
	t := Tag{Kind: m >> kindShift, Key: int64(a.key[p])}
	if a.aux != nil {
		t.Aux = a.aux[p]
	}
	return t
}

// Program writes one page with the given OOB tag. NAND constraints are
// enforced: the page must be free and must be the next page in its block's
// program order. A tag the packed columns cannot hold is refused with
// ErrTagRange rather than truncated.
func (a *Array) Program(p PPN, tag Tag) error {
	if err := a.Geo.CheckPPN(p); err != nil {
		return err
	}
	if st := a.State(p); st != PageFree {
		return fmt.Errorf("%w: ppn %d is %v", ErrProgramNotFree, p, st)
	}
	bid := a.Geo.BlockOf(p)
	idx := a.Geo.PageIndexOf(p)
	if idx != int(a.writePtr[bid]) {
		return fmt.Errorf("%w: ppn %d index %d, block cursor %d",
			ErrProgramOutOfOrder, p, idx, a.writePtr[bid])
	}
	if err := a.setValid(p, tag); err != nil {
		return err
	}
	a.writePtr[bid]++
	a.validCount[bid]++
	a.programs++
	if int(a.writePtr[bid]) == a.Geo.PagesPerBlock {
		// The block just became full: it is now a GC victim candidate.
		a.vidx.blockFilled(a.Geo.PlaneOfBlock(bid), bid, int(a.validCount[bid]))
	}
	return nil
}

// setValid stores a page's tag and marks it valid; nothing is written for a
// tag the columns cannot hold.
func (a *Array) setValid(p PPN, tag Tag) error {
	if tag.Kind > MaxKind || int64(int32(tag.Key)) != tag.Key {
		return fmt.Errorf("%w: ppn %d, tag %+v", ErrTagRange, p, tag)
	}
	if a.aux == nil && tag.Aux != 0 {
		a.aux = make([]int64, len(a.meta))
	}
	if a.aux != nil {
		a.aux[p] = tag.Aux
	}
	a.meta[p] = uint8(PageValid) | tag.Kind<<kindShift
	a.key[p] = int32(tag.Key)
	return nil
}

// Read checks that a page holds data (valid or stale). Reading invalid pages
// is physically possible and the merged-read path of Across-FTL never does
// it, but GC-era diagnostics may; only unwritten pages are an error.
func (a *Array) Read(p PPN) error {
	if err := a.Geo.CheckPPN(p); err != nil {
		return err
	}
	if a.State(p) == PageFree {
		return fmt.Errorf("%w: ppn %d", ErrReadUnwritten, p)
	}
	a.reads++
	return nil
}

// Invalidate marks a previously valid page as superseded.
func (a *Array) Invalidate(p PPN) error {
	if err := a.Geo.CheckPPN(p); err != nil {
		return err
	}
	if st := a.State(p); st != PageValid {
		return fmt.Errorf("%w: ppn %d is %v", ErrInvalidateNotValid, p, st)
	}
	bid := a.Geo.BlockOf(p)
	a.meta[p] = uint8(PageInvalid)
	a.validCount[bid]--
	if int(a.writePtr[bid]) == a.Geo.PagesPerBlock {
		a.vidx.blockValidDec(a.Geo.PlaneOfBlock(bid), bid, int(a.validCount[bid]))
	}
	return nil
}

// Erase resets a block to all-free. The FTL must migrate valid pages first;
// erasing live data is refused.
func (a *Array) Erase(bid BlockID) error {
	if err := a.Geo.CheckBlock(bid); err != nil {
		return err
	}
	if a.validCount[bid] != 0 {
		return fmt.Errorf("%w: block %d has %d valid pages", ErrEraseWithValid, bid, a.validCount[bid])
	}
	first := a.Geo.FirstPage(bid)
	clear(a.meta[first : first+PPN(a.Geo.PagesPerBlock)])
	if int(a.writePtr[bid]) == a.Geo.PagesPerBlock {
		a.vidx.blockErased(a.Geo.PlaneOfBlock(bid), bid)
	}
	a.writePtr[bid] = 0
	a.eraseCount[bid]++
	a.erases++
	return nil
}

// Holds reports whether page p is valid and tagged with kind and key, reading
// the metadata and key columns only: the question a mapping audit asks of
// every entry, without building the Tag (and loading its aux) that TagOf does.
func (a *Array) Holds(p PPN, kind uint8, key int64) bool {
	return a.meta[p] == uint8(PageValid)|kind<<kindShift && int64(a.key[p]) == key
}

// PrefetchPage hints the line that holds page p's metadata byte, which the
// next check, invalidate or program of p loads. It reads no state, and an
// out-of-range p is ignored.
func (a *Array) PrefetchPage(p PPN) {
	if uint64(p) < uint64(len(a.meta)) {
		Prefetch(unsafe.Pointer(&a.meta[p]))
	}
}

// Byte lanes of a 64-bit word holding eight metadata bytes.
const (
	laneOnes = 0x0101010101010101
	laneLow7 = 0x7F7F7F7F7F7F7F7F
	laneHigh = 0x8080808080808080
)

// zeroLanes sets the high bit of each zero byte of w and no other bit. The
// sum cannot carry between bytes, so unlike the borrow trick it is exact.
func zeroLanes(w uint64) uint64 {
	return ^((w&laneLow7 + laneLow7) | w | laneLow7)
}

// lanesBelow has the high bit of the first k bytes of a word, 0 <= k <= 8.
func lanesBelow(k int) uint64 {
	return laneHigh & (^uint64(0) >> uint(64-8*k))
}

// censusLanes checks eight metadata bytes w whose lanes below lie under the
// write pointer. It returns the lanes that hold a valid page below the
// pointer and the lanes that break the census rules: below the pointer a page
// is programmed — valid, or invalid with no kind bits — and from the pointer
// up it is the zero byte.
func censusLanes(w, below uint64) (valid, bad uint64) {
	valid = zeroLanes(w&(3*laneOnes)^uint64(PageValid)*laneOnes) & below
	invalid := zeroLanes(w ^ uint64(PageInvalid)*laneOnes)
	free := zeroLanes(w)
	return valid, below&^(valid|invalid) | laneHigh&^below&^free
}

// BlockCensus checks block b's metadata column against its write pointer,
// eight pages to a 64-bit word with no branch per page: every page below the
// pointer is programmed (valid, or invalid with no kind bits) and every page
// at or above it is the zero byte. It returns the number of valid pages below
// the pointer and the index within the block of the first page that breaks a
// rule, or -1. The audit's recount of the cached valid count rests on it. A
// block whose size is not a multiple of eight ends in a partial word, loaded
// zero-filled: the missing lanes lie above the pointer and pass as free.
func (a *Array) BlockCensus(b BlockID) (valid, bad int) {
	ppb := a.Geo.PagesPerBlock
	first := int(a.Geo.FirstPage(b))
	m := a.meta[first : first+ppb]
	wp := int(a.writePtr[b])
	word := func(i int) uint64 {
		if i+8 <= ppb {
			return binary.LittleEndian.Uint64(m[i:])
		}
		return tailWord(m[i:])
	}
	var faults uint64
	for i := 0; i < ppb; i += 8 {
		v, f := censusLanes(word(i), lanesBelow(min(max(wp-i, 0), 8)))
		valid += bits.OnesCount64(v)
		faults |= f
	}
	if faults == 0 {
		return valid, -1
	}
	// Something is wrong: find the first faulty word again.
	for i := 0; ; i += 8 {
		if _, f := censusLanes(word(i), lanesBelow(min(max(wp-i, 0), 8))); f != 0 {
			return valid, i + bits.TrailingZeros64(f)/8
		}
	}
}

// tailWord loads up to eight bytes little-endian, zero-filling the rest.
func tailWord(m []uint8) uint64 {
	var w uint64
	for j := 0; j < len(m) && j < 8; j++ {
		w |= uint64(m[j]) << (8 * j)
	}
	return w
}

// ValidCount returns the number of valid pages in a block (the GC victim
// metric).
func (a *Array) ValidCount(bid BlockID) int { return int(a.validCount[bid]) }

// WritePtr returns the block's program cursor; PagesPerBlock means full.
func (a *Array) WritePtr(bid BlockID) int { return int(a.writePtr[bid]) }

// FreeInBlock returns the number of still-programmable pages in a block.
func (a *Array) FreeInBlock(bid BlockID) int { return a.Geo.PagesPerBlock - int(a.writePtr[bid]) }

// EraseCount returns a block's erase counter.
func (a *Array) EraseCount(bid BlockID) int64 { return a.eraseCount[bid] }

// TotalErases returns the device-wide erase count — the endurance indicator
// reported in Figs 11 and 14(b).
func (a *Array) TotalErases() int64 { return a.erases }

// TotalPrograms returns the device-wide program count since construction.
// The verification layer checks it against the Device's attributed write
// counters, so nothing can program the array behind the accounting.
func (a *Array) TotalPrograms() int64 { return a.programs }

// TotalReads returns the device-wide read count since construction; the
// counterpart of TotalPrograms for the read-attribution identity.
func (a *Array) TotalReads() int64 { return a.reads }

// CountStates tallies page states over the whole device; used by
// sim.Runner.AgedState and by tests. With the flattened layout this is a
// scan of the two per-block metadata arrays, not of every page.
func (a *Array) CountStates() (free, valid, invalid int64) {
	ppb := int64(a.Geo.PagesPerBlock)
	for bid := range a.writePtr {
		wp := int64(a.writePtr[bid])
		v := int64(a.validCount[bid])
		free += ppb - wp
		valid += v
		invalid += wp - v
	}
	return
}

// WearStats summarises per-block erase counters: the wear-levelling view
// of the endurance metric (mean, spread, extremes over all blocks).
func (a *Array) WearStats() (mean, stddev float64, min, max int64) {
	if len(a.eraseCount) == 0 {
		return 0, 0, 0, 0
	}
	min = a.eraseCount[0]
	max = min
	var sum float64
	for _, e := range a.eraseCount {
		sum += float64(e)
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	mean = sum / float64(len(a.eraseCount))
	var ss float64
	for _, e := range a.eraseCount {
		d := float64(e) - mean
		ss += d * d
	}
	stddev = math.Sqrt(ss / float64(len(a.eraseCount)))
	return mean, stddev, min, max
}

// ValidPages lists the PPNs of valid pages in a block in program order,
// with their tags. GC uses AppendValidPages with a reusable scratch buffer;
// this convenience wrapper allocates and suits recovery scans and tests.
func (a *Array) ValidPages(bid BlockID) []PPN {
	return a.AppendValidPages(nil, bid)
}

// AppendValidPages appends the PPNs of valid pages in a block, in program
// order, to dst and returns the extended slice. Passing dst[:0] makes the
// per-victim GC scan allocation-free in steady state.
func (a *Array) AppendValidPages(dst []PPN, bid BlockID) []PPN {
	first := a.Geo.FirstPage(bid)
	end := first + PPN(a.writePtr[bid])
	for p := first; p < end; p++ {
		if a.State(p) == PageValid {
			dst = append(dst, p)
		}
	}
	return dst
}

// GreedyVictim returns the full block in plane pl with the fewest valid
// pages (strictly fewer than PagesPerBlock — erasing an all-valid block
// gains nothing), breaking ties toward the lowest block id, and skipping
// the two active blocks. It returns -1 when no candidate exists. The
// lookup is O(1) amortised against the incrementally maintained index and
// selects exactly the block the reference O(blocks-per-plane) scan would.
func (a *Array) GreedyVictim(pl PlaneID, skip1, skip2 BlockID) BlockID {
	return a.vidx.greedy(pl, skip1, skip2)
}
