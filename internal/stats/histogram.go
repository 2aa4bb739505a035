// Package stats provides the small statistical utilities the simulator's
// metric collection needs: a log-bucketed latency histogram with quantile
// estimation (for tail-latency analysis of GC effects, cf. the partial-GC
// line of work the paper cites), and running moment accumulators used for
// wear-levelling reports.
package stats

import (
	"fmt"
	"math"
)

// Histogram parameters: buckets span [bucketBase, bucketBase*2^(octaves)]
// with subdiv buckets per octave. With base 1 µs and 40 octaves the range
// comfortably covers every latency the simulator can produce.
const (
	bucketBase = 0.001 // ms (1 µs)
	subdiv     = 8     // buckets per octave
	octaves    = 40
	nBuckets   = octaves*subdiv + 2 // + underflow and overflow
)

// Histogram is a fixed-size log-bucketed histogram of non-negative values
// (milliseconds by convention). The zero value is ready to use.
type Histogram struct {
	buckets [nBuckets]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// bucketOfLog2 defines the bucketing, for x = v/bucketBase >= 1: bucket
// 1 + floor(subdiv*log2(x)) as floating point computes it, the last bucket
// being the overflow.
func bucketOfLog2(x float64) int {
	idx := 1 + int(math.Log2(x)*subdiv)
	if idx >= nBuckets {
		return nBuckets - 1 // overflow
	}
	return idx
}

// bucketBound[i] is the smallest x that bucketOfLog2 puts in bucket i or a
// later one: the float beside 2^((i-1)/subdiv) at which its answer steps.
// Bucket 1 starts at the domain's edge and needs none.
var bucketBound = func() (b [nBuckets]float64) {
	for i := 2; i < nBuckets; i++ {
		x := math.Exp2(float64(i-1) / subdiv)
		for bucketOfLog2(x) >= i {
			x = math.Nextafter(x, 0)
		}
		for bucketOfLog2(x) < i {
			x = math.Nextafter(x, math.Inf(1))
		}
		b[i] = x
	}
	return b
}()

// bucketOf maps a value to its bucket index, bucketOfLog2's without the
// logarithm. The exponent of x is the octave and its top three mantissa bits
// the linear eighth; subdiv*log2(1+f) - subdiv*f is in [0, 1) for f in
// [0, 1), so the bucket is that guess or the next, and one compare against
// the next bucket's bound decides.
func bucketOf(v float64) int {
	if v < bucketBase {
		return 0 // underflow
	}
	x := v / bucketBase
	idx := int(math.Float64bits(x)>>49) - 1023*subdiv + 1
	if idx >= nBuckets-1 {
		return bucketOfLog2(x) // overflow, +Inf, NaN
	}
	if x >= bucketBound[idx+1] {
		idx++
	}
	return idx
}

// bucketLower returns the inclusive lower bound of a bucket.
func bucketLower(idx int) float64 {
	if idx <= 0 {
		return 0
	}
	return bucketBase * math.Pow(2, float64(idx-1)/subdiv)
}

// Add records one observation. Negative values are clamped to zero (they
// can only arise from floating-point jitter in latency subtraction).
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sum returns the exact sum of the observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 <= q <= 1) to bucket resolution
// (~9% relative error with 8 buckets per octave). Exact extremes are used
// for q=0 and q=1.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			lo := bucketLower(i)
			hi := bucketLower(i + 1)
			if hi > h.max {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			// Midpoint of the bucket: cheap, bounded-error estimate.
			return (lo + hi) / 2
		}
	}
	return h.max
}

// P50, P95, P99, P999 are the quantiles reported by the latency tables.
func (h *Histogram) P50() float64  { return h.Quantile(0.50) }
func (h *Histogram) P95() float64  { return h.Quantile(0.95) }
func (h *Histogram) P99() float64  { return h.Quantile(0.99) }
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// String summarises the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f",
		h.count, h.Mean(), h.P50(), h.P99(), h.max)
}
