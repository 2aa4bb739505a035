// Package flash models the NAND flash array of the simulated SSD: the
// channel→chip→die→plane→block→page hierarchy, the page/block state
// machines (erase-before-program, in-order programming within a block),
// per-page out-of-band back-pointers used by garbage collection, and
// per-block erase counters used as the endurance metric in the paper.
//
// The array stores metadata only — the simulator never materialises user
// data, because every result in the paper is a function of which pages are
// touched, not of their contents.
package flash

import (
	"fmt"

	"across/internal/ssdconf"
)

// PPN is a physical page number: a linear index over every page in the
// device. The mapping tables of all three FTL schemes resolve to PPNs.
type PPN int64

// NilPPN marks "no physical page", e.g. an unmapped logical page.
const NilPPN PPN = -1

// BlockID is a linear index over every block in the device.
type BlockID int64

// PlaneID is a linear index over every plane in the device. Planes are the
// allocation domains: each has its own free-block pool and active block.
type PlaneID int32

// ChipID is a linear index over the independently schedulable chips
// (channel × chip). The clock package keeps one timeline per ChipID.
type ChipID int32

// Geometry precomputes the address arithmetic for a configuration. All
// fields are derived; it is safe to copy.
type Geometry struct {
	PagesPerBlock  int
	BlocksPerPlane int
	Planes         int
	Chips          int
	planesPerChip  int
	pagesPerPlane  int64
	pagesPerChip   int64
	totalPages     int64
	totalBlocks    int64
}

// NewGeometry derives the address arithmetic from a validated Config.
func NewGeometry(c *ssdconf.Config) Geometry {
	g := Geometry{
		PagesPerBlock:  c.PagesPerBlock,
		BlocksPerPlane: c.BlocksPerPlane,
		Planes:         c.PlanesTotal(),
		Chips:          c.Chips(),
		planesPerChip:  c.DiesPerChip * c.PlanesPerDie,
	}
	g.pagesPerPlane = int64(c.BlocksPerPlane) * int64(c.PagesPerBlock)
	g.pagesPerChip = g.pagesPerPlane * int64(g.planesPerChip)
	g.totalBlocks = int64(g.Planes) * int64(c.BlocksPerPlane)
	g.totalPages = g.totalBlocks * int64(c.PagesPerBlock)
	return g
}

// TotalPages returns the number of physical pages.
func (g *Geometry) TotalPages() int64 { return g.totalPages }

// TotalBlocks returns the number of physical blocks.
func (g *Geometry) TotalBlocks() int64 { return g.totalBlocks }

// BlockOf returns the block containing a page.
func (g *Geometry) BlockOf(p PPN) BlockID { return BlockID(int64(p) / int64(g.PagesPerBlock)) }

// PageIndexOf returns the page's index within its block (the program order).
func (g *Geometry) PageIndexOf(p PPN) int { return int(int64(p) % int64(g.PagesPerBlock)) }

// FirstPage returns the first page of a block.
func (g *Geometry) FirstPage(b BlockID) PPN { return PPN(int64(b) * int64(g.PagesPerBlock)) }

// PlaneOfBlock returns the plane that owns a block. Blocks are laid out
// contiguously per plane.
func (g *Geometry) PlaneOfBlock(b BlockID) PlaneID {
	return PlaneID(int64(b) / int64(g.BlocksPerPlane))
}

// PlaneOf returns the plane that owns a page.
func (g *Geometry) PlaneOf(p PPN) PlaneID { return g.PlaneOfBlock(g.BlockOf(p)) }

// ChipOfPlane returns the chip a plane belongs to. Plane indices are laid
// out channel-major, so consecutive plane indices within a chip are
// contiguous.
func (g *Geometry) ChipOfPlane(pl PlaneID) ChipID {
	return ChipID(int(pl) / g.planesPerChip)
}

// ChipOf returns the chip that services operations on a page: one division
// in place of ChipOfPlane(PlaneOf(p))'s three, which truncating division
// lets compose.
func (g *Geometry) ChipOf(p PPN) ChipID { return ChipID(int64(p) / g.pagesPerChip) }

// ChannelOfChip returns the channel of a chip given chips per channel; it is
// only needed for reporting.
func ChannelOfChip(chip ChipID, chipsPerChan int) int { return int(chip) / chipsPerChan }

// BlocksOfPlane returns the half-open block-id range [lo, hi) of a plane.
func (g *Geometry) BlocksOfPlane(pl PlaneID) (lo, hi BlockID) {
	lo = BlockID(int64(pl) * int64(g.BlocksPerPlane))
	return lo, lo + BlockID(g.BlocksPerPlane)
}

// CheckPPN validates that a page number is inside the device.
func (g *Geometry) CheckPPN(p PPN) error {
	if p < 0 || int64(p) >= g.totalPages {
		return fmt.Errorf("flash: PPN %d out of range [0,%d)", p, g.totalPages)
	}
	return nil
}

// CheckBlock validates that a block number is inside the device.
func (g *Geometry) CheckBlock(b BlockID) error {
	if b < 0 || int64(b) >= g.totalBlocks {
		return fmt.Errorf("flash: block %d out of range [0,%d)", b, g.totalBlocks)
	}
	return nil
}
