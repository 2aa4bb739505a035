package sim

import (
	"fmt"
	"reflect"
	"testing"

	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// reduction is what a row of the scheme table reduces to: built by subject,
// the scheme serves every request exactly as FTL does. A row without one
// says why none exists.
type reduction struct {
	subject func(*ssdconf.Config) (ftl.Scheme, error)
	none    string
}

// reductions has an entry for every row of the scheme table.
var reductions = map[SchemeKind]reduction{
	KindFTL: {subject: asScheme(ftl.NewBaseline)},
	// DFTL with every translation page resident: the table never spills.
	KindDFTL: {subject: func(c *ssdconf.Config) (ftl.Scheme, error) {
		return ftl.NewDFTLWithCache(c, int(c.LogicalPages()/int64(c.PageBytes/c.MapEntryBytes)+1))
	}},
	KindMRSM: {none: "MRSM maps sub-pages and packs them into shared pages, so it changes every request"},
	KindAcross: {none: "Across-FTL's read path charges no DRAM access for a never-written page, " +
		"where FTL charges one per page slice, so even an across-free trace reads faster (ROADMAP item 17)"},
}

// doneLog records each request's completion time.
type doneLog struct {
	obs.Nop
	done []float64
}

func (l *doneLog) RequestEnd(_ int64, _ bool, done float64) { l.done = append(l.done, done) }

// TestReductionIdentities: each scheme that reduces to FTL serves lun1–lun6,
// on a fresh and an aged device, open loop and at QD 8, exactly as FTL does:
// every request's completion time, the Counters, the Wear and every chip's
// busy time, bit for bit.
func TestReductionIdentities(t *testing.T) {
	conf := smallConf()
	var traces [][]trace.Request
	for _, p := range workload.LunProfiles() {
		reqs, err := workload.Generate(p.Scale(0.01), conf.LogicalSectors())
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, reqs)
	}
	type outcome struct {
		res  *Result
		done []float64
	}
	// replay forks a scheme built by build from the template and replays
	// every trace on it at both queue depths.
	replay := func(t *testing.T, tpl *Runner, build func(*ssdconf.Config) (ftl.Scheme, error)) []outcome {
		var out []outcome
		for _, reqs := range traces {
			for _, qd := range []int{0, 8} {
				s, err := build(tpl.Conf)
				if err != nil {
					t.Fatal(err)
				}
				s.(interface{ CopyState(ftl.Scheme) int64 }).CopyState(tpl.Scheme)
				r := &Runner{Conf: tpl.Conf, Kind: tpl.Kind, Scheme: s, warmed: tpl.warmed}
				log := &doneLog{}
				r.SetTracer(log)
				res, err := r.ReplayQD(reqs, qd)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, outcome{res, log.done})
			}
		}
		return out
	}
	template := func(t *testing.T, kind SchemeKind, build func(*ssdconf.Config) (ftl.Scheme, error), aged bool) *Runner {
		s, err := build(&conf)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Conf: &conf, Kind: kind, Scheme: s}
		if aged {
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	states := []string{"fresh", "aged"}
	var want [2][]outcome
	for i, state := range states {
		want[i] = replay(t, template(t, KindFTL, asScheme(ftl.NewBaseline), state == "aged"), asScheme(ftl.NewBaseline))
	}
	var gc int64
	for _, o := range want[1] {
		gc += o.res.Counters.GCInvocations
	}
	if gc == 0 {
		t.Fatal("no garbage collection in the aged replays: the identities would not cover it")
	}

	for _, e := range schemes {
		red, ok := reductions[e.kind]
		if !ok {
			t.Errorf("%s declares no reduction and no reason for none", e.kind)
			continue
		}
		if red.subject == nil {
			t.Logf("%s: no identity: %s", e.kind, red.none)
			continue
		}
		t.Run(string(e.kind), func(t *testing.T) {
			for i, state := range states {
				got := replay(t, template(t, e.kind, red.subject, state == "aged"), red.subject)
				for j, g := range got {
					w := want[i][j]
					label := fmt.Sprintf("%s/lun%d/qd%d", state, j/2+1, 8*(j%2))
					if !reflect.DeepEqual(w.done, g.done) {
						t.Errorf("%s: completion times differ from FTL's", label)
					}
					if w.res.Counters != g.res.Counters {
						t.Errorf("%s: counters %+v, FTL's %+v", label, g.res.Counters, w.res.Counters)
					}
					if g.res.Counters.MapReads != 0 || g.res.Counters.MapWrites != 0 {
						t.Errorf("%s: %d map reads and %d map writes with the table resident", label, g.res.Counters.MapReads, g.res.Counters.MapWrites)
					}
					if w.res.Wear != g.res.Wear {
						t.Errorf("%s: wear %+v, FTL's %+v", label, g.res.Wear, w.res.Wear)
					}
					if !reflect.DeepEqual(w.res.ChipBusyMs, g.res.ChipBusyMs) {
						t.Errorf("%s: chip busy %v, FTL's %v", label, g.res.ChipBusyMs, w.res.ChipBusyMs)
					}
				}
			}
		})
	}
}
