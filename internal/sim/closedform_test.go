package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
)

// TestClosedLoopOneChipClosedForms checks the host loop and the chip
// timeline against two closed forms, the utilisation law and saturation,
// bit for bit.
// On a one-chip device with no bus (TransferTime 0), FTL serves a
// single-page read of a written LPN as one ReadTime on the chip, then one
// CacheAccess of mapping lookup. n such reads arrive at time 0 and are
// replayed closed loop:
//
//   - at QD 1 each read is issued when the one before completes, so the
//     chip idles through every lookup: read i completes at the n service
//     times ReadTime, CacheAccess summed in order up to it, and the
//     makespan, which ends when the chip goes idle, at that sum less the
//     last lookup;
//   - at QD 4 the chip never idles (three reads queue behind the one it
//     serves, and a lookup is shorter than three reads), so the makespan is
//     ReadTime summed n times: throughput is exactly one read per ReadTime.
//
// At either depth the chip's BusyTime is its counted reads times ReadTime.
// Every sum is taken in the order the simulator takes it, repeated addition
// included (float64(n)*ReadTime rounds differently), so nothing needs a
// tolerance.
func TestClosedLoopOneChipClosedForms(t *testing.T) {
	conf := ssdconf.Table1()
	conf.Channels, conf.ChipsPerChan, conf.DiesPerChip, conf.PlanesPerDie = 1, 1, 1, 1
	conf.BlocksPerPlane, conf.PagesPerBlock = 64, 32
	conf.TransferTime = 0
	const n = 500
	spp := int64(conf.SectorsPerPage())
	page := func(op trace.Op, lpn int64) trace.Request {
		return trace.Request{Op: op, Offset: lpn * spp, Count: int32(spp)}
	}
	writes := make([]trace.Request, n)
	for lpn := range writes {
		writes[lpn] = page(trace.OpWrite, int64(lpn))
	}
	reads := make([]trace.Request, n)
	for i, lpn := range rand.New(rand.NewSource(10)).Perm(n) {
		reads[i] = page(trace.OpRead, int64(lpn))
	}
	r, err := NewRunner(KindFTL, conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AgeWithTrace(writes); err != nil {
		t.Fatal(err)
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, qd := range []int{1, 4} {
		t.Run(fmt.Sprintf("qd%d", qd), func(t *testing.T) {
			res, err := mustFork(t, cp).ReplayQD(reads, qd)
			if err != nil {
				t.Fatal(err)
			}
			// The closed form: chip is when the chip finishes read i, done
			// when the read completes, sum the completions in order (each
			// read's latency, as every read arrives at time 0).
			var chip, done, sum, busy float64
			for i := 0; i < n; i++ {
				if qd == 1 {
					chip = done + conf.ReadTime
				} else {
					chip += conf.ReadTime
				}
				done = chip + conf.CacheAccess
				sum += done
			}
			if c := res.Counters; c.DataReads != n || c.FlashReads() != n || c.FlashWrites() != 0 {
				t.Fatalf("counters %+v, want exactly %d data reads", c, n)
			}
			for i := int64(0); i < res.Counters.DataReads; i++ {
				busy += conf.ReadTime
			}
			if got := res.ChipBusyMs[0]; got != busy {
				t.Errorf("chip busy %v ms, want %d reads x %v ms = %v", got, res.Counters.DataReads, conf.ReadTime, busy)
			}
			if res.MeasuredSpanMs != chip {
				t.Errorf("makespan %v ms, closed form %v", res.MeasuredSpanMs, chip)
			}
			if res.ReadLatencySum != sum {
				t.Errorf("read latencies sum to %v ms, closed form %v", res.ReadLatencySum, sum)
			}
			if qd > 1 && res.MeasuredSpanMs != busy {
				t.Errorf("QD %d makespan %v ms is not the chip's busy time %v: the chip idled", qd, res.MeasuredSpanMs, busy)
			}
		})
	}
}
