package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should be all zeroes")
	}
}

func TestHistogramExactMoments(t *testing.T) {
	var h Histogram
	vals := []float64{1, 2, 3, 4, 10}
	for _, v := range vals {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", h.Mean())
	}
	if h.Sum() != 20 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("extremes = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	var h Histogram
	h.Add(-0.5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative value not clamped to 0")
	}
}

func TestQuantileAccuracyOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Latency-like: log-normal-ish spread over four orders of magnitude.
		v := math.Exp(rng.NormFloat64()*1.5) * 0.5
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		if got < exact*0.85 || got > exact*1.15 {
			t.Errorf("Quantile(%v) = %v, exact %v (>15%% off)", q, got, exact)
		}
	}
	if h.Quantile(0) != vals[0] {
		t.Error("Quantile(0) should be exact min")
	}
	if h.Quantile(1) != vals[len(vals)-1] {
		t.Error("Quantile(1) should be exact max")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Add(rng.Float64() * 100)
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramOverflowUnderflow(t *testing.T) {
	var h Histogram
	h.Add(1e-9) // under bucketBase
	h.Add(1e12) // over the top octave
	if h.Count() != 2 {
		t.Fatal("observations lost")
	}
	if h.Quantile(0.9) <= 0 {
		t.Fatal("overflow bucket not represented")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Add(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged extremes = %v/%v", a.Min(), a.Max())
	}
	if got := a.Quantile(0.5); got < 85 || got > 115 {
		t.Fatalf("merged median = %v, want ~100", got)
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 200 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramResetAndString(t *testing.T) {
	var h Histogram
	h.Add(5)
	if !strings.Contains(h.String(), "n=1") {
		t.Errorf("String = %q", h.String())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestPercentileShortcuts(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	if !(h.P50() < h.P95() && h.P95() < h.P99() && h.P99() <= h.P999()) {
		t.Fatalf("percentile ordering broken: %v %v %v %v", h.P50(), h.P95(), h.P99(), h.P999())
	}
}

func TestMomentsWelford(t *testing.T) {
	var m Moments
	if m.StdDev() != 0 || m.Mean() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatal("empty moments not zero")
	}
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		m.Add(v)
	}
	if m.Count() != 8 {
		t.Fatalf("Count = %d", m.Count())
	}
	if m.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", m.Mean())
	}
	if d := m.StdDev() - 2; d > 1e-9 || d < -1e-9 {
		t.Fatalf("StdDev = %v, want 2", m.StdDev())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("extremes = %v/%v", m.Min(), m.Max())
	}
}

func TestMomentsMatchesNaiveOnRandomData(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m Moments
		var vals []float64
		for i := 0; i < 300; i++ {
			v := rng.NormFloat64()*10 + 50
			m.Add(v)
			vals = append(vals, v)
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		sd := math.Sqrt(ss / float64(len(vals)))
		return math.Abs(m.Mean()-mean) < 1e-9 && math.Abs(m.StdDev()-sd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBucketOfMatchesLog2 pins the table-driven bucketOf to the formula it
// replaced, which is the contract: log-uniform random values over the whole
// range and beyond it, every table boundary ± 2 ulp, and the edges — 0,
// values below bucketBase, the overflow, and the values the formula has no
// bucket for (+Inf, MaxFloat64 and NaN index out of range, before and after).
func TestBucketOfMatchesLog2(t *testing.T) {
	formula := func(v float64) int {
		if v < bucketBase {
			return 0
		}
		idx := 1 + int(math.Log2(v/bucketBase)*subdiv)
		if idx >= nBuckets {
			return nBuckets - 1
		}
		return idx
	}
	check := func(v float64) {
		t.Helper()
		if got, want := bucketOf(v), formula(v); got != want {
			t.Fatalf("bucketOf(%g) = %d, the Log2 formula says %d", v, got, want)
		}
	}
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		check(bucketBase * math.Exp2(rng.Float64()*(octaves+4)-2))
	}
	for i := 2; i < nBuckets; i++ {
		if lo := bucketOfLog2(math.Nextafter(bucketBound[i], 0)); lo != i-1 || bucketOfLog2(bucketBound[i]) != i {
			t.Fatalf("bucketBound[%d] = %g is not where the formula steps from %d to %d", i, bucketBound[i], i-1, i)
		}
		// v/bucketBase rounds, so walk v around the boundary's preimage.
		up, down := bucketBound[i]*bucketBase, bucketBound[i]*bucketBase
		for d := 0; d <= 4; d++ {
			check(up)
			check(down)
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
		}
	}
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 1e-9, math.Nextafter(bucketBase, 0), bucketBase,
		math.Nextafter(bucketBase, 1), 1, 1e6, bucketBase * math.Exp2(octaves), 1e300,
		math.MaxFloat64, math.Inf(1), math.NaN(), -1, math.Inf(-1)} {
		check(v)
	}
	var h Histogram
	h.Add(-1) // clamped to 0, the underflow bucket
	if h.buckets[0] != 1 || h.Min() != 0 {
		t.Fatalf("Add(-1): underflow bucket %d, min %v", h.buckets[0], h.Min())
	}
}
