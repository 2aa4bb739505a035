package workload

import (
	"fmt"
	"math/rand"

	"across/internal/trace"
)

// Generator produces a deterministic request stream for a profile over a
// device of a given logical size. Requests are generated against the 8 KB
// reference page (RefSPP sectors), like the Table 2 statistics; replaying
// the same trace at other page sizes is exactly how Fig 13/14 vary the page
// size over fixed workloads.
type Generator struct {
	p    Profile
	rng  stream     // every draw but the arrival gaps
	exp  *rand.Rand // rand.New(&rng): ExpFloat64 on math/rand's tables
	now  float64
	left int

	footprint int64 // sectors
	hotEnd    int64 // [0, hotEnd) is the hot region

	// Zone split: across-page objects live in a dedicated slice of each
	// region (small files, logs, registry hives — the traffic that loses
	// page alignment through the image-file translation), while bulk
	// aligned/contained traffic targets the remainder (OS images, swap).
	// Bulk writes therefore rarely collide with re-aligned areas, which is
	// what keeps the paper's ARollback ratio low on full-length traces.
	hotBulkEnd  int64 // [0, hotBulkEnd) bulk-hot, [hotBulkEnd, hotEnd) objects-hot
	coldBulkEnd int64 // [hotEnd, coldBulkEnd) bulk-cold, [coldBulkEnd, footprint) objects-cold

	// The fixed population of across-page extents this trace touches. A
	// real VDI guest's unaligned objects (file tails, metadata records,
	// database pages shifted by the image-file translation) sit at fixed
	// addresses and are re-read and updated in place, so the set of live
	// re-aligned areas is bounded regardless of trace length — which is
	// what keeps the paper's ARollback ratio (3.9%) and merged-read share
	// (0.12%) low on full-length traces.
	population []acrossExtent
	hotObjects int // population[:hotObjects] receive HotProb of accesses

	// Derived size model (sectors).
	meanNormalWrite float64
	alignedShare    float64
	meanAlignedPgs  float64
}

// Small-request sizes are biased toward <= half a page (<= 4 KB on the 8 KB
// reference page), which is what real VDI traffic looks like and what makes
// the across-page ratio fall as the page grows (Fig 13): most across-page
// requests at 8 KB still cross a boundary at 4 KB pages.
//
// meanAcrossSectors is the mean generated across-page request size:
// 80% uniform [2,8] (mean 5) + 20% uniform [9,16] (mean 12.5) = 6.5 sectors.
const meanAcrossSectors = 0.8*5 + 0.2*12.5

// meanContainedSectors is the mean contained sub-page request size:
// 80% uniform [1,8] (mean 4.5) + 20% uniform [9,15] (mean 12) = 6 sectors.
const meanContainedSectors = 0.8*4.5 + 0.2*12

// acrossExtent is one member of the across-page object population. base is
// the object's natural size: mutations oscillate around it (records are
// appended and truncated) instead of growing without bound, so the
// population's size mix is stationary over arbitrarily long traces.
type acrossExtent struct {
	off   int64
	count int
	base  int
}

const (
	// populationDivisor sizes the across-page object population relative
	// to the footprint (one object per this many footprint pages), clamped
	// to [populationMin, populationMax].
	populationDivisor = 64
	populationMin     = 64
	populationMax     = 8192
	// mutateProb is the chance a revisit changes the extent slightly (an
	// appended record, a shifted tail) — the trigger for Profitable-AMerge
	// growth.
	mutateProb = 0.10
	// outgrowProb is the chance an across-page write instead rewrites its
	// object grown past one page (a file that outgrew its tail): the
	// update can no longer be re-aligned and forces an ARollback, the
	// ~3.9% residual the paper reports in Fig 8(a).
	outgrowProb = 0.035
	// containedOverlapProb is the chance a contained sub-page write lands
	// inside an across-page object — the update pattern behind the paper's
	// Unprofitable-AMerge share (8.9% of across-area writes).
	containedOverlapProb = 0.12
)

// NewGenerator prepares a generator over a device with logicalSectors
// addressable sectors.
func NewGenerator(p Profile, logicalSectors int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if logicalSectors < 16*RefSPP {
		return nil, fmt.Errorf("workload: device too small (%d sectors)", logicalSectors)
	}
	g := &Generator{p: p, left: p.Requests}
	g.rng.Seed(p.Seed)
	g.exp = rand.New(&g.rng)
	g.footprint = int64(float64(logicalSectors) * p.FootprintFrac)
	if g.footprint < 8*RefSPP {
		g.footprint = 8 * RefSPP
	}
	// Keep footprints page-aligned so aligned requests stay aligned.
	g.footprint -= g.footprint % RefSPP
	g.hotEnd = g.footprint * int64(p.HotFrac*1000) / 1000
	g.hotEnd -= g.hotEnd % RefSPP
	if g.hotEnd < 4*RefSPP {
		g.hotEnd = 4 * RefSPP
	}
	// Reserve the tail ~15% of each region for across-page objects.
	g.hotBulkEnd = alignDown(g.hotEnd * 85 / 100)
	g.coldBulkEnd = alignDown(g.hotEnd + (g.footprint-g.hotEnd)*85/100)

	// Size calibration: overall mean write size must hit AvgWriteKB.
	// across requests contribute meanAcrossSectors; the rest splits between
	// page-aligned multi-page requests and sub-page contained requests.
	target := p.AvgWriteKB * 2 // KB -> sectors
	g.meanNormalWrite = (target - p.AcrossRatio*meanAcrossSectors) / (1 - p.AcrossRatio)
	if g.meanNormalWrite < 4 {
		g.meanNormalWrite = 4
	}
	// Contained sub-page requests average RefSPP/2 sectors. Solve the
	// aligned share so the normal mix hits meanNormalWrite, assuming
	// aligned requests average meanAlignedPgs pages.
	g.meanAlignedPgs = g.meanNormalWrite/RefSPP + 0.5
	if g.meanAlignedPgs < 1 {
		g.meanAlignedPgs = 1
	}
	contained := meanContainedSectors
	alignedMean := g.meanAlignedPgs * RefSPP
	g.alignedShare = (g.meanNormalWrite - contained) / (alignedMean - contained)
	if g.alignedShare < 0.05 {
		g.alignedShare = 0.05
	}
	if g.alignedShare > 0.95 {
		g.alignedShare = 0.95
	}

	// Materialise the across-page object population (deterministic in the
	// profile seed). Objects sit at distinct odd page boundaries, so no two
	// objects ever overlap (an extent reaches at most one page either side
	// of its own boundary): the live re-aligned areas they induce stay
	// disjoint, which is what keeps rollbacks rare on arbitrarily long
	// traces, as in the paper.
	n := int(g.footprint / RefSPP / populationDivisor)
	if n < populationMin {
		n = populationMin
	}
	if n > populationMax {
		n = populationMax
	}
	// HotFrac of the objects live in the hot zone and receive HotProb of
	// the accesses — few objects, touched often, exactly the locality that
	// keeps the AMT's hot entries cache-resident on long traces.
	nHot := int(float64(n) * p.HotFrac)
	if nHot < 1 {
		nHot = 1
	}
	g.population = make([]acrossExtent, 0, n)
	used := make(map[int64]bool, n)
	for len(g.population) < n {
		hot := len(g.population) < nHot
		e, bpage, ok := g.freshExtent(used, hot, len(g.population))
		if !ok {
			break // zone exhausted of free odd boundaries
		}
		used[bpage] = true
		g.population = append(g.population, e)
	}
	g.hotObjects = nHot
	if len(g.population) == 0 {
		e, bpage, _ := g.freshExtent(nil, true, 0)
		used[bpage] = true
		g.population = append(g.population, e)
		g.hotObjects = 1
	}
	if g.hotObjects > len(g.population) {
		g.hotObjects = len(g.population)
	}
	return g, nil
}

// freshExtent places a boundary-straddling extent at an unused odd page
// boundary of the chosen temperature zone (used == nil skips the dedupe).
// Sizes are stratified over the population index — 4 of 5 objects small
// (≤ half a page), 1 of 5 large — so the request-level size mix holds even
// for tiny populations (it is what makes the Fig 13 monotonicity robust at
// every scale). It reports the boundary page; ok=false when no free
// boundary is found.
func (g *Generator) freshExtent(used map[int64]bool, hot bool, idx int) (acrossExtent, int64, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		bpage := g.pageInObjects(3, hot)/RefSPP + 1
		if bpage%2 == 0 {
			bpage++
		}
		if used != nil && used[bpage] {
			continue
		}
		var count int
		if idx%5 < 4 {
			count = g.rng.Intn(7) + 2 // [2, 8]
		} else {
			count = g.rng.Intn(8) + 9 // [9, 16]
		}
		boundary := bpage * RefSPP
		lead := g.rng.Intn(count-1) + 1 // sectors before the boundary
		return acrossExtent{off: boundary - int64(lead), count: count, base: count}, bpage, true
	}
	return acrossExtent{}, 0, false
}

// Footprint returns the trace's footprint in sectors.
func (g *Generator) Footprint() int64 { return g.footprint }

func alignDown(sec int64) int64 { return sec - sec%RefSPP }

// pageIn picks a page-aligned base sector in the bulk zones, honouring the
// hot/cold split and leaving room for a request of maxPages pages.
func (g *Generator) pageIn(maxPages int64) int64 {
	base, end := int64(0), g.hotBulkEnd
	if g.rng.Float64() >= g.p.HotProb {
		base, end = g.hotEnd, g.coldBulkEnd
	}
	pages := (end-base)/RefSPP - maxPages
	if pages < 1 {
		pages = 1
	}
	return base + g.rng.Int63n(pages)*RefSPP
}

// pageInObjects picks a page-aligned base sector in the requested object
// zone.
func (g *Generator) pageInObjects(maxPages int64, hot bool) int64 {
	base, end := g.hotBulkEnd, g.hotEnd
	if !hot {
		base, end = g.coldBulkEnd, g.footprint
	}
	pages := (end-base)/RefSPP - maxPages
	if pages < 1 {
		pages = 1
	}
	return base + g.rng.Int63n(pages)*RefSPP
}

// acrossRequest picks an across-page object from the population; with
// mutateProb the object itself changes shape first (the mutation persists,
// so subsequent accesses see the updated extent, exactly like an appended
// file tail).
func (g *Generator) acrossRequest() (int64, int) {
	var i int
	if g.rng.Float64() < g.p.HotProb {
		i = g.rng.Intn(g.hotObjects)
	} else if len(g.population) > g.hotObjects {
		i = g.hotObjects + g.rng.Intn(len(g.population)-g.hotObjects)
	}
	if g.rng.Float64() < mutateProb {
		e := &g.population[i]
		boundary := (e.off/RefSPP + 1) * RefSPP
		lead := int(boundary - e.off) // sectors before the boundary (>= 1)
		// Oscillate the tail around the object's natural size, keeping the
		// extent across the boundary (count > lead) and within one page.
		count := e.base + g.rng.Intn(5) - 2
		if count <= lead {
			count = lead + 1
		}
		if count > RefSPP {
			count = RefSPP
		}
		e.count = count
	}
	e := g.population[i]
	return e.off, e.count
}

// containedRequest produces a contained sub-page extent, occasionally
// overlapping a remembered across-page extent when the op is a write.
func (g *Generator) containedRequest(op trace.Op) (int64, int) {
	if op == trace.OpWrite && len(g.population) > 0 && g.rng.Float64() < containedOverlapProb {
		e := g.population[g.rng.Intn(len(g.population))]
		// A short update inside the extent's first page, clipped to the
		// page so it stays contained (not across).
		pageEnd := (e.off/RefSPP + 1) * RefSPP
		maxLen := int(pageEnd - e.off)
		count := g.rng.Intn(4) + 1
		if count > maxLen {
			count = maxLen
		}
		return e.off, count
	}
	count := g.containedCount()
	off := g.pageIn(1) + int64(g.rng.Intn(RefSPP-count+1))
	return off, count
}

// containedCount draws a contained sub-page request size in sectors.
func (g *Generator) containedCount() int {
	if g.rng.Float64() < 0.8 {
		return g.rng.Intn(8) + 1 // [1, 8]
	}
	return g.rng.Intn(7) + 9 // [9, 15]
}

// geometricPages draws a page count >= 1 with the calibrated mean.
func (g *Generator) geometricPages() int {
	p := 1 / g.meanAlignedPgs
	n := 1
	for g.rng.Float64() > p && n < 32 {
		n++
	}
	return n
}

// Next returns the next request, or ok=false when the trace is exhausted.
func (g *Generator) Next() (trace.Request, bool) {
	if g.left == 0 {
		return trace.Request{}, false
	}
	g.left--
	g.now += g.exp.ExpFloat64() / g.p.MeanIOPS * 1000 // ms

	op := trace.OpRead
	if g.rng.Float64() < g.p.WriteRatio {
		op = trace.OpWrite
	}

	var off int64
	var count int
	switch {
	case g.rng.Float64() < g.p.AcrossRatio:
		off, count = g.acrossRequest()
		if op == trace.OpWrite && g.rng.Float64() < outgrowProb {
			// The object outgrew its page: an appended tail is rewritten
			// from partway into the object, spilling past the across-page
			// limit. The update overlaps the re-aligned area without
			// covering it, so the FTL must roll the area back.
			shift := int64(g.rng.Intn(3) + 1)
			if shift >= int64(count) {
				shift = int64(count) - 1
			}
			off += shift
			count += g.rng.Intn(8) + RefSPP - count + 1 // > one page
		}
	case g.rng.Float64() < g.alignedShare:
		// Page-aligned multi-page request.
		pages := g.geometricPages()
		off = g.pageIn(int64(pages))
		count = pages * RefSPP
	default:
		// Contained sub-page request: unaligned but inside one page —
		// sometimes an update landing inside a recently written across-page
		// extent (see containedOverlapProb).
		off, count = g.containedRequest(op)
	}
	// Near-minimal devices leave zones too small for the margins the pickers
	// assume, so clip the request to the footprint instead of addressing past
	// the end of the logical space (on realistic geometries this never
	// triggers).
	if off+int64(count) > g.footprint {
		if int64(count) >= g.footprint {
			off, count = 0, int(g.footprint)
		} else {
			off = g.footprint - int64(count)
		}
	}
	return trace.Request{Time: g.now, Op: op, Offset: off, Count: int32(count)}, true
}

// Generate materialises the whole trace.
func (g *Generator) Generate() []trace.Request {
	out := make([]trace.Request, 0, g.left)
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Generate is a convenience constructing a generator and materialising the
// trace in one call.
func Generate(p Profile, logicalSectors int64) ([]trace.Request, error) {
	g, err := NewGenerator(p, logicalSectors)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}
