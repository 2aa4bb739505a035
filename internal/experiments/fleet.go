package experiments

import (
	"io"

	"across/internal/fleet"
	"across/internal/report"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// studyFrac is the share of the session's trace lengths ext-fleet and
// ext-scenario replay per cell (0.2% of Table 2 at the default scale): a
// study is hundreds of cells, each on devices forked from a checkpoint.
const studyFrac = 0.04

// fleetDevices is the device count of every ext-fleet volume.
const fleetDevices = 4

// fleetQDs is the closed-loop queue-depth ladder of each ext-fleet cell.
var fleetQDs = []int{1, 2, 4, 8, 16, 32}

// fleetChunksKB straddles the 8 KB page size: 4 KB re-fragments page-aligned
// traffic, 8 KB matches it, 64 KB is the common RAID default.
var fleetChunksKB = []int{4, 8, 64}

// studyKinds is the scheme axis of the studies: the paper's three plus DFTL.
func studyKinds() []sim.SchemeKind { return append(sim.Kinds(), sim.KindDFTL) }

// fleetSpecs enumerates the layout x chunk cells: concat ignores the chunk,
// so it contributes one cell.
func fleetSpecs() []fleet.Spec {
	specs := []fleet.Spec{{Devices: fleetDevices, Layout: fleet.LayoutConcat}}
	for _, l := range []fleet.Layout{fleet.LayoutRAID0, fleet.LayoutRAID10} {
		for _, kb := range fleetChunksKB {
			specs = append(specs, fleet.Spec{
				Devices:      fleetDevices,
				Layout:       l,
				ChunkSectors: int64(kb) * 1024 / ssdconf.SectorBytes,
			})
		}
	}
	return specs
}

// fleetSweep measures every (scheme, layout, chunk) cell of ext-fleet.
func (s *Session) fleetSweep() ([]report.FleetCell, error) {
	prof := s.Luns()[0].Scale(studyFrac)
	var cells []report.FleetCell
	for _, kind := range studyKinds() {
		cp, err := s.checkpoint(kind, s.Cfg.SSD)
		if err != nil {
			return nil, err
		}
		for _, spec := range fleetSpecs() {
			cell, err := s.fleetCell(cp, spec, prof)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// fleetCell runs one cell's queue-depth ladder. The trace is sized to the
// volume and every arrival squashed to t=0, so the closed-loop gate — not
// the arrival process — sets the offered load and the ladder can saturate
// the devices. Each point replays on a volume freshly forked from cp.
func (s *Session) fleetCell(cp *sim.Checkpoint, spec fleet.Spec, prof workload.Profile) (report.FleetCell, error) {
	cell := report.FleetCell{Scheme: string(cp.Kind), Layout: string(spec.Layout)}
	if spec.Layout != fleet.LayoutConcat {
		cell.ChunkKB = int(spec.ChunkSectors * ssdconf.SectorBytes / 1024)
	}
	sectors, err := spec.LogicalSectors(cp.Conf)
	if err != nil {
		return cell, err
	}
	reqs, err := workload.Generate(prof, sectors)
	if err != nil {
		return cell, err
	}
	for i := range reqs {
		reqs[i].Time = 0
	}
	var res *fleet.Result
	for _, qd := range fleetQDs {
		v, err := fleet.FromCheckpoint(cp, spec)
		if err != nil {
			return cell, err
		}
		if res, err = v.Replay(s.ctx, reqs, qd); err != nil {
			return cell, err
		}
		cell.Points = append(cell.Points, report.QDPoint{
			QD:         qd,
			Throughput: res.Throughput(),
			ReadP99:    res.ReadLat.P99(),
			WriteP99:   res.WriteLat.P99(),
		})
	}
	// Fragmentation is a property of layout and trace, not of queue depth.
	cell.Fanout = res.Fanout()
	cell.AcrossRatio = res.LogicalClasses.Ratio(trace.ClassAcross)
	cell.SubAcross = res.SubClasses.Ratio(trace.ClassAcross)
	cell.SubUnaligned = res.SubClasses.Ratio(trace.ClassUnaligned)
	if k := report.Knee(cell.Points); k >= 0 {
		cell.KneeQD = cell.Points[k].QD
	}
	return cell, nil
}

// extFleetExperiment is the fleet saturation study of DESIGN §14: every
// scheme on a 4-device volume of every layout, with stripe chunks straddling
// the page size — a chunk below the page re-fragments across-page requests
// into partial-page pieces, which is exactly the traffic the schemes differ
// on.
func extFleetExperiment() Experiment {
	return Experiment{
		ID:    "ext-fleet",
		Title: "Fleet saturation sweep (extension; not a paper figure)",
		Paper: "not in the paper, which evaluates one SSD; asks whether re-alignment survives a striped volume's re-fragmentation of the host's requests",
		Run: func(s *Session, w io.Writer) error {
			cells, err := s.fleetSweep()
			if err != nil {
				return err
			}
			report.SaturationTable("4-device volumes, closed loop, QD 1-32", cells).RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}
