package report

import (
	"strings"
	"testing"
)

func curve(qds []int, tputs []float64) []QDPoint {
	pts := make([]QDPoint, len(qds))
	for i := range qds {
		pts[i] = QDPoint{QD: qds[i], Throughput: tputs[i]}
	}
	return pts
}

func TestKnee(t *testing.T) {
	qds := []int{1, 2, 4, 8, 16, 32}
	for _, tc := range []struct {
		name  string
		tputs []float64
		want  int
	}{
		// Classic saturation: throughput climbs then flattens at qd=8.
		{"saturating", []float64{100, 200, 390, 700, 720, 730}, 3},
		// Linear scaling never saturates: the normalised curve hugs the
		// chord, no point stands out below it.
		{"linear", []float64{100, 200, 400, 800, 1600, 3200}, -1},
		// Flat or declining curves have no rising chord to knee against.
		{"flat", []float64{500, 500, 500, 500, 500, 500}, -1},
	} {
		if got := Knee(curve(qds, tc.tputs)); got != tc.want {
			t.Errorf("%s: Knee = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := Knee(curve([]int{1, 2}, []float64{1, 2})); got != -1 {
		t.Errorf("2-point curve: Knee = %d, want -1", got)
	}
}

// TestKneeConcaveEarly pins that an early-saturating curve knees early.
func TestKneeConcaveEarly(t *testing.T) {
	pts := curve([]int{1, 2, 4, 8, 16, 32}, []float64{100, 900, 950, 980, 990, 1000})
	if got := Knee(pts); got != 1 {
		t.Errorf("early saturation: Knee = %d, want 1", got)
	}
}

func TestSaturationTableRenders(t *testing.T) {
	cells := []FleetCell{{
		Scheme: "Across-FTL", Layout: "raid0", ChunkKB: 64,
		Points: []QDPoint{
			{QD: 1, Throughput: 100, ReadP99: 1, WriteP99: 2},
			{QD: 8, Throughput: 600, ReadP99: 3, WriteP99: 5},
			{QD: 32, Throughput: 620, ReadP99: 30, WriteP99: 50},
		},
		KneeQD: 8, Fanout: 1.4, AcrossRatio: 0.31, SubAcross: 0.12, SubUnaligned: 0.4,
	}}
	var b strings.Builder
	SaturationTable("fleet saturation", cells).Render(&b)
	out := b.String()
	for _, want := range []string{"Across-FTL", "raid0", "64 KB", "8", "620", "31.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("saturation table missing %q:\n%s", want, out)
		}
	}
}

func TestFleetDeviceTableRenders(t *testing.T) {
	rows := []FleetDeviceRow{
		{Device: 0, SubRequests: 80, Sectors: 1280, BusyMs: 800, Util: 0.2},
		{Device: 1, SubRequests: 70, Sectors: 1120, BusyMs: 400, Util: 0.1},
	}
	var b strings.Builder
	FleetDeviceTable("fleet devices", rows, 1.5, &b)
	out := b.String()
	for _, want := range []string{"20.0%", "10.0%", "1,280", "1.50", "10.0%..20.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("device table missing %q:\n%s", want, out)
		}
	}
}
