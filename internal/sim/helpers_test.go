package sim

import (
	"reflect"
	"testing"

	"across/internal/trace"
)

// replaySerial produces the reference Result for a trace on a fresh runner.
func replaySerial(t *testing.T, kind SchemeKind, reqs []trace.Request, qd int) *Result {
	t.Helper()
	r, err := NewRunner(kind, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ReplayQD(reqs, qd)
	if err != nil {
		t.Fatalf("%s: replay: %v", kind, err)
	}
	return res
}

// assertIdentical asserts two Results are byte-identical, with targeted
// messages for the fields most likely to diverge.
func assertIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	t.Errorf("%s: Result diverged from the reference run", label)
	if want.Requests != got.Requests {
		t.Errorf("%s: Requests %d vs %d", label, want.Requests, got.Requests)
	}
	if want.ReadLatencySum != got.ReadLatencySum || want.WriteLatencySum != got.WriteLatencySum {
		t.Errorf("%s: latency sums (%g,%g) vs (%g,%g)", label,
			want.ReadLatencySum, want.WriteLatencySum, got.ReadLatencySum, got.WriteLatencySum)
	}
	if want.Counters != got.Counters {
		t.Errorf("%s: counters %+v vs %+v", label, want.Counters, got.Counters)
	}
	if want.Wear != got.Wear {
		t.Errorf("%s: wear %+v vs %+v", label, want.Wear, got.Wear)
	}
	if !reflect.DeepEqual(want.ChipBusyMs, got.ChipBusyMs) {
		t.Errorf("%s: chip busy %v vs %v", label, want.ChipBusyMs, got.ChipBusyMs)
	}
	if want.ByBucket != got.ByBucket {
		t.Errorf("%s: buckets %+v vs %+v", label, want.ByBucket, got.ByBucket)
	}
}
