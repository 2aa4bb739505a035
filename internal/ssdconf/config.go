// Package ssdconf defines the geometry and timing configuration of the
// simulated SSD, including the TLC configuration used in Table 1 of the
// paper and shape-preserving scaled variants used to keep experiment runs
// fast.
//
// All sizes are expressed in sectors (512 B) unless the name says otherwise;
// all times are in milliseconds.
package ssdconf

import (
	"fmt"
)

// SectorBytes is the size of one logical sector, the addressing granularity
// of block traces (and of the AMT offset/size fields in the paper).
const SectorBytes = 512

// Config describes a simulated SSD: its physical geometry, NAND timing, and
// the FTL-level parameters shared by every scheme.
type Config struct {
	// Geometry, from the top of the hierarchy downwards.
	Channels       int // independent channels
	ChipsPerChan   int // chips (targets) per channel
	DiesPerChip    int // dies per chip
	PlanesPerDie   int // planes per die
	BlocksPerPlane int // blocks per plane
	PagesPerBlock  int // pages per block (Table 1: 64)
	PageBytes      int // page size in bytes (Table 1: 8 KiB)

	// NAND + controller timing (milliseconds).
	ReadTime    float64 // page read, Table 1: 0.075 ms
	ProgramTime float64 // page program, Table 1: 2 ms
	EraseTime   float64 // block erase (not in Table 1; standard TLC value)
	CacheAccess float64 // DRAM/cache access, Table 1: 0.001 ms
	// TransferTime is the channel-bus transfer cost per page operation.
	// Table 1 folds transfers into the read/program figures, so the preset
	// leaves it 0; set it to model slower buses explicitly.
	TransferTime float64

	// FTL parameters.
	GCThreshold    float64 // trigger GC when a plane's free pages fall to this fraction of its pages or below (Table 1: 10%)
	OverProvision  float64 // fraction of logical space exported (logical = physical * (1-OP))
	MapEntryBytes  int     // bytes per PMT entry used for table sizing (baseline FTL)
	AMTEntryBytes  int     // bytes per AMT entry (Across-FTL)
	AIdxBytes      int     // bytes added per PMT entry by the AIdx field (Across-FTL)
	SubPagesPerPg  int     // MRSM sub-regions per page
	MRSMEntryBytes int     // bytes per MRSM sub-page mapping entry

	// DRAMBudgetBytes is the mapping-cache budget. Zero means "size of the
	// baseline FTL's full page mapping table" (the paper's setting: the
	// baseline table fits, MRSM's 2.4x table does not).
	DRAMBudgetBytes int64
}

// SectorsPerPage returns the number of 512 B sectors in one flash page.
func (c *Config) SectorsPerPage() int { return c.PageBytes / SectorBytes }

// PlanesTotal returns the number of planes in the device.
func (c *Config) PlanesTotal() int {
	return c.Channels * c.ChipsPerChan * c.DiesPerChip * c.PlanesPerDie
}

// BlocksTotal returns the number of physical blocks in the device.
func (c *Config) BlocksTotal() int { return c.PlanesTotal() * c.BlocksPerPlane }

// PagesTotal returns the number of physical pages in the device.
func (c *Config) PagesTotal() int64 {
	return int64(c.BlocksTotal()) * int64(c.PagesPerBlock)
}

// PhysBytes returns the raw capacity of the device in bytes.
func (c *Config) PhysBytes() int64 { return c.PagesTotal() * int64(c.PageBytes) }

// LogicalPages returns the number of logical pages exported to the host
// after over-provisioning.
func (c *Config) LogicalPages() int64 {
	return int64(float64(c.PagesTotal()) * (1 - c.OverProvision))
}

// LogicalSectors returns the number of addressable host sectors.
func (c *Config) LogicalSectors() int64 {
	return c.LogicalPages() * int64(c.SectorsPerPage())
}

// Chips returns the number of independently schedulable chips. The per-chip
// timeline is the unit of time-multiplexing in the simulator.
func (c *Config) Chips() int { return c.Channels * c.ChipsPerChan }

// BaselineTableBytes is the in-DRAM size of the conventional page-level
// mapping table (one entry per logical page).
func (c *Config) BaselineTableBytes() int64 {
	return c.LogicalPages() * int64(c.MapEntryBytes)
}

// DRAMBudget resolves the effective mapping-cache budget in bytes.
func (c *Config) DRAMBudget() int64 {
	if c.DRAMBudgetBytes > 0 {
		return c.DRAMBudgetBytes
	}
	return c.BaselineTableBytes()
}

// Validate checks the configuration for internal consistency. Every
// constructor in the simulator calls it, so an invalid Config cannot
// silently produce nonsense results.
func (c *Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{c.Channels > 0, "Channels must be positive"},
		{c.ChipsPerChan > 0, "ChipsPerChan must be positive"},
		{c.DiesPerChip > 0, "DiesPerChip must be positive"},
		{c.PlanesPerDie > 0, "PlanesPerDie must be positive"},
		{c.BlocksPerPlane > 1, "BlocksPerPlane must be at least 2 (GC needs a spare)"},
		{c.PagesPerBlock > 0, "PagesPerBlock must be positive"},
		{c.PageBytes >= SectorBytes, "PageBytes must be at least one sector"},
		{c.PageBytes%SectorBytes == 0, "PageBytes must be a multiple of the sector size"},
		{c.ReadTime > 0, "ReadTime must be positive"},
		{c.ProgramTime > 0, "ProgramTime must be positive"},
		{c.EraseTime > 0, "EraseTime must be positive"},
		{c.CacheAccess >= 0, "CacheAccess must be non-negative"},
		{c.TransferTime >= 0, "TransferTime must be non-negative"},
		{c.GCThreshold > 0 && c.GCThreshold < 1, "GCThreshold must be in (0,1)"},
		{c.OverProvision > 0 && c.OverProvision < 1, "OverProvision must be in (0,1)"},
		{c.MapEntryBytes > 0, "MapEntryBytes must be positive"},
		{c.AMTEntryBytes > 0, "AMTEntryBytes must be positive"},
		{c.AIdxBytes > 0, "AIdxBytes must be positive"},
		{c.SubPagesPerPg > 0, "SubPagesPerPg must be positive"},
		{c.MRSMEntryBytes > 0, "MRSMEntryBytes must be positive"},
	}
	for _, ck := range checks {
		if !ck.ok {
			return fmt.Errorf("ssdconf: %s", ck.msg)
		}
	}
	if c.SectorsPerPage()%c.SubPagesPerPg != 0 {
		return fmt.Errorf("ssdconf: SubPagesPerPg (%d) must divide sectors per page (%d)",
			c.SubPagesPerPg, c.SectorsPerPage())
	}
	if c.GCThreshold > 0.5 {
		return fmt.Errorf("ssdconf: GCThreshold %.2f leaves too little usable space", c.GCThreshold)
	}
	// Overflow guard: the derived totals (PlanesTotal → BlocksTotal →
	// PagesTotal → PhysBytes) size slice allocations, so a geometry whose
	// products wrap int64 — or describe an absurd device — must be rejected
	// here, before any constructor calls make().
	total := int64(1)
	for _, dim := range [...]int64{
		int64(c.Channels), int64(c.ChipsPerChan), int64(c.DiesPerChip),
		int64(c.PlanesPerDie), int64(c.BlocksPerPlane), int64(c.PagesPerBlock),
		int64(c.PageBytes),
	} {
		next := total * dim
		if next/dim != total || next > maxPhysBytes {
			return fmt.Errorf("ssdconf: geometry describes more than %d bytes of flash (or overflows)", int64(maxPhysBytes))
		}
		total = next
	}
	if c.LogicalPages() < 1 {
		return fmt.Errorf("ssdconf: OverProvision %.4f leaves no exported logical pages", c.OverProvision)
	}
	return nil
}

// maxPhysBytes bounds the raw capacity Validate accepts: 1 PiB, far above
// Table 1's 128 GiB but small enough that every derived count (pages,
// blocks, sectors) fits comfortably in int64 arithmetic downstream.
const maxPhysBytes = int64(1) << 50

// String renders a short human-readable summary of the configuration.
func (c *Config) String() string {
	return fmt.Sprintf("ssd{%dch x %dchip x %ddie x %dplane, %d blk/plane, %d pg/blk, %dKB page, %.1fGiB}",
		c.Channels, c.ChipsPerChan, c.DiesPerChip, c.PlanesPerDie,
		c.BlocksPerPlane, c.PagesPerBlock, c.PageBytes/1024,
		float64(c.PhysBytes())/(1<<30))
}
