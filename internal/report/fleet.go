package report

import (
	"fmt"
	"io"
)

// QDPoint is one cell of a fleet saturation sweep: the closed-loop operating
// point at one queue depth.
type QDPoint struct {
	QD         int
	Throughput float64 // logical requests / simulated second
	ReadP99    float64 // ms
	WriteP99   float64 // ms
}

// Knee finds the saturation knee of a throughput-vs-queue-depth curve: the
// point of maximum distance above the chord from the first to the last
// point of the normalised curve (the kneedle construction for a concave
// increasing curve). Past the knee, added queue depth buys tail latency
// instead of throughput. It returns the index into pts, or -1 when the
// curve is too short, flat, or linear to have one.
func Knee(pts []QDPoint) int {
	if len(pts) < 3 {
		return -1
	}
	first, last := pts[0], pts[len(pts)-1]
	dx := float64(last.QD - first.QD)
	dy := last.Throughput - first.Throughput
	if dx <= 0 || dy <= 0 {
		return -1
	}
	best, bestIdx := 0.0, -1
	for i := 1; i < len(pts)-1; i++ {
		// Normalised coordinates in [0,1] x [0,1]; the chord is y = x, and
		// a saturating curve bows above it by y - x.
		x := float64(pts[i].QD-first.QD) / dx
		y := (pts[i].Throughput - first.Throughput) / dy
		if d := y - x; d > best {
			best, bestIdx = d, i
		}
	}
	return bestIdx
}

// FleetCell is one (scheme, layout, chunk) cell of the fleet sweep: the QD
// curve plus the fragmentation summary of what the layout did to the trace.
type FleetCell struct {
	Scheme       string
	Layout       string
	ChunkKB      int // 0 for concat (no striping)
	Points       []QDPoint
	KneeQD       int     // 0 when no knee was detected
	Fanout       float64 // sub-requests per logical request
	AcrossRatio  float64 // across-page share of the logical requests
	SubAcross    float64 // across-page share of the sub-requests they split into
	SubUnaligned float64 // unaligned share of the sub-requests
}

// Peak returns the cell's highest throughput over its QD points.
func (c FleetCell) Peak() float64 {
	var peak float64
	for _, p := range c.Points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	return peak
}

// SaturationTable tabulates one row per fleet cell: knee, peak throughput,
// p99 at the knee, and the re-fragmentation ratios that explain the
// chunk-size sensitivity.
func SaturationTable(title string, cells []FleetCell) *Table {
	t := New(title,
		"scheme", "layout", "chunk", "knee QD", "peak req/s", "p99 rd @knee", "p99 wr @knee",
		"fanout", "across% log", "across% sub", "unaligned% sub")
	for _, c := range cells {
		kneeQD, p99r, p99w := "-", "-", "-"
		for _, p := range c.Points {
			if c.KneeQD != 0 && p.QD == c.KneeQD {
				kneeQD = fmt.Sprintf("%d", p.QD)
				p99r, p99w = F(p.ReadP99, 3), F(p.WriteP99, 3)
			}
		}
		chunk := "-"
		if c.ChunkKB > 0 {
			chunk = fmt.Sprintf("%d KB", c.ChunkKB)
		}
		t.Add(c.Scheme, c.Layout, chunk, kneeQD, F(c.Peak(), 0),
			p99r, p99w, F(c.Fanout, 2), Pct(c.AcrossRatio), Pct(c.SubAcross), Pct(c.SubUnaligned))
	}
	t.Note = "knee: kneedle point of the throughput-vs-QD curve; across%/unaligned%: request alignment classes before (log) and after (sub) layout splitting"
	return t
}

// FleetDeviceRow is one device's line in the per-device balance table.
// The fleet package depends on sim (whose tests depend on report), so the
// renderer takes plain rows rather than a fleet.Result; callers adapt.
type FleetDeviceRow struct {
	Device      int
	SubRequests int64
	Sectors     int64
	BusyMs      float64
	Util        float64 // busy fraction over chips x makespan
	Erases      int64
	GCRuns      int64
}

// FleetDeviceTable renders the per-device balance view of one fleet replay:
// routed fragments, sectors, busy time and utilisation per device, with the
// utilisation spread and layout fan-out in the note line.
func FleetDeviceTable(title string, rows []FleetDeviceRow, fanout float64, w io.Writer) {
	t := New(title, "device", "sub-reqs", "sectors", "busy ms", "util", "erases", "GC runs")
	lo, hi := 0.0, 0.0
	for i, d := range rows {
		if i == 0 || d.Util < lo {
			lo = d.Util
		}
		if d.Util > hi {
			hi = d.Util
		}
		t.Add(fmt.Sprintf("%d", d.Device), N(d.SubRequests), N(d.Sectors),
			F(d.BusyMs, 1), Pct(d.Util), N(d.Erases), N(d.GCRuns))
	}
	t.Note = fmt.Sprintf("utilisation spread %s..%s; fan-out %.2f sub-requests/request",
		Pct(lo), Pct(hi), fanout)
	t.Render(w)
}
