package ftl

import (
	"fmt"

	"across/internal/flash"
	"across/internal/mapping"
)

// TagPad marks mount-time padding: when recovery finds a partially written
// block, it seals the remaining pages with dummy programs (immediately
// invalidated) so the allocator's "blocks are either erased or full"
// invariant holds after a crash — the same thing real controllers do when
// they close open blocks at mount. It is the last kind a page can carry
// (flash.MaxKind), well clear of the scheme kinds that count up from zero.
const TagPad uint8 = flash.MaxKind

// RecoverAllocator rebuilds allocation state over a device whose array
// already holds data (a "crashed" device): fully erased blocks return to
// the free pools, partially written blocks are sealed with padding, and
// every counter is recomputed from the array. The onMigrate callback is
// installed as with NewAllocator.
func RecoverAllocator(dev *Device, onMigrate MigrateFunc) (*Allocator, error) {
	geo := dev.Array.Geo
	a := NewAllocator(dev, onMigrate)
	for pl := range a.planes {
		st := &a.planes[pl]
		st.freeBlocks = st.freeBlocks[:0]
		st.active, st.gcActive = -1, -1
		st.freePages = 0
		lo, hi := geo.BlocksOfPlane(flash.PlaneID(pl))
		for b := hi - 1; b >= lo; b-- {
			wp := dev.Array.WritePtr(b)
			switch {
			case wp == 0:
				st.freeBlocks = append(st.freeBlocks, b)
				st.freePages += int64(geo.PagesPerBlock)
			case wp < geo.PagesPerBlock:
				// Seal the open block.
				first := geo.FirstPage(b)
				for i := wp; i < geo.PagesPerBlock; i++ {
					p := first + flash.PPN(i)
					if err := dev.Array.Program(p, flash.Tag{Kind: TagPad, Key: -1}); err != nil {
						return nil, fmt.Errorf("ftl: recovery padding: %w", err)
					}
					if err := dev.Array.Invalidate(p); err != nil {
						return nil, fmt.Errorf("ftl: recovery padding: %w", err)
					}
				}
			}
		}
	}
	return a, nil
}

// RecoverBaseline mounts a baseline FTL over a crashed device by scanning
// every valid page's OOB tag: TagData pages rebuild the PMT. Any other valid
// page is refused with an error, translation pages included, so a device a
// scheme spilled maps onto (DFTL's among them) does not mount. Padding is
// invalid from the moment it is written, so the scan never meets it.
func RecoverBaseline(dev *Device) (*Baseline, error) {
	base, err := RecoverBase(dev)
	if err != nil {
		return nil, err
	}
	s := &Baseline{Base: base}
	s.Al.SetMigrate(s.migrate)
	geo := dev.Array.Geo
	for b := flash.BlockID(0); int64(b) < geo.TotalBlocks(); b++ {
		for _, p := range dev.Array.ValidPages(b) {
			tag := dev.Array.TagOf(p)
			switch tag.Kind {
			case TagData:
				if old := s.PMT.SetPPN(tag.Key, p); old != flash.NilPPN {
					return nil, fmt.Errorf("ftl: recovery found two valid pages for lpn %d", tag.Key)
				}
			default:
				return nil, fmt.Errorf("ftl: baseline recovery met tag kind %d", tag.Kind)
			}
		}
	}
	return s, nil
}

// RecoverBase builds the shared scheme state over an existing device with
// an empty PMT; each scheme's recovery rebuilds its mappings from the OOB
// scan.
func RecoverBase(dev *Device) (Base, error) {
	al, err := RecoverAllocator(dev, nil)
	if err != nil {
		return Base{}, err
	}
	b := Base{
		Conf:     dev.Conf,
		Dev:      dev,
		Al:       al,
		PMT:      mapping.NewPMT(dev.Conf.LogicalPages()),
		SPP:      dev.Conf.SectorsPerPage(),
		sectors:  dev.Conf.LogicalSectors(),
		sppShift: shiftOf(dev.Conf.SectorsPerPage()),
	}
	b.Al.SetPrefetch(ownerPrefetch(b.PMT))
	return b, nil
}
