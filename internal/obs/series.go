package obs

import (
	"fmt"
	"math"
	"slices"

	"across/internal/snapshot"
)

// A stored sample series is a snapshot container (own magic, SHA-256 over the
// body, not compressed) whose body is one i64 slab and a run of strings:
//
//	word 0     the number of samples, n
//	n records  seriesWords words per sample: the scalar fields in declaration
//	           order (floats as their IEEE-754 bits), then the lengths of
//	           ChipBusyFrac, ChipBusyMs and Custom, -1 for nil
//	the rest   every sample's ChipBusyFrac then ChipBusyMs values, in order
//	strings    every sample's Custom entries, key then value, ascending by key
//
// Fixed-width words cost a memory copy where NDJSON costs a shortest-repr
// float format per value, which is why a job stores this and a reader who
// wants the text pays for it (DESIGN §10).
const (
	seriesMagic   = "AXSS"
	seriesVersion = 1
	seriesWords   = 21
)

// EncodeSeries serialises a sample series losslessly: DecodeSeries returns
// samples that are reflect.DeepEqual to the input (nil and empty slices stay
// distinct, ±0 and denormals keep their bits) and the same series always
// encodes to the same bytes.
func EncodeSeries(samples []Sample) ([]byte, error) {
	chipVals := 0
	for i := range samples {
		chipVals += len(samples[i].ChipBusyFrac) + len(samples[i].ChipBusyMs)
	}
	enc := snapshot.NewEncoder()
	words := enc.I64Slab(1 + len(samples)*seriesWords + chipVals)
	words.Set(0, int64(len(samples)))
	w, c := 1, 1+len(samples)*seriesWords
	for i := range samples {
		s := &samples[i]
		for _, v := range [seriesWords]int64{
			fbits(s.TimeMs), s.Requests, fbits(s.ReadMeanMs), fbits(s.WriteMeanMs), int64(s.QueueDepth),
			s.GCDebtPages, fbits(s.WAF), fbits(s.CMTHitRate),
			s.CumRequests, s.CumReads, s.CumWrites, fbits(s.CumReadLatSumMs), fbits(s.CumWriteLatSumMs),
			s.CumFlashReads, s.CumFlashWrites, s.CumErases, s.CumGCInvocations, s.CumHostPagesWritten,
			lenOrNil(s.ChipBusyFrac == nil, len(s.ChipBusyFrac)),
			lenOrNil(s.ChipBusyMs == nil, len(s.ChipBusyMs)),
			lenOrNil(s.Custom == nil, len(s.Custom)),
		} {
			words.Set(w, v)
			w++
		}
		for _, col := range [2][]float64{s.ChipBusyFrac, s.ChipBusyMs} {
			for _, v := range col {
				words.Set(c, fbits(v))
				c++
			}
		}
	}
	var keys []string
	for i := range samples {
		keys = keys[:0]
		for k := range samples[i].Custom {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			enc.Str(k)
			enc.F64(samples[i].Custom[k])
		}
	}
	return snapshot.SealRaw(seriesMagic, seriesVersion, enc)
}

func fbits(v float64) int64 { return int64(math.Float64bits(v)) }

func lenOrNil(isNil bool, n int) int64 {
	if isNil {
		return -1
	}
	return int64(n)
}

// DecodeSeries is the inverse of EncodeSeries. A blob that is not a complete,
// intact series — truncated, altered, another container, another version —
// yields an error wrapping one of the snapshot package's sentinels and no
// samples, never a panic; what it allocates is bounded by the bytes present.
func DecodeSeries(blob []byte) ([]Sample, error) {
	dec, err := snapshot.Open(seriesMagic, seriesVersion, blob)
	if err != nil {
		return nil, err
	}
	words := dec.I64View()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	// The count is believed only as far as the words present bear it out.
	if words.Len() == 0 || words.At(0) < 0 || words.At(0) > int64((words.Len()-1)/seriesWords) {
		return nil, fmt.Errorf("%w: series of %d words cannot hold the samples it counts", snapshot.ErrCorrupt, words.Len())
	}
	samples := make([]Sample, words.At(0))
	vals := make([]float64, words.Len()-1-len(samples)*seriesWords)
	for i := range vals {
		vals[i] = math.Float64frombits(uint64(words.At(words.Len() - len(vals) + i)))
	}
	// take cuts the next n chip values off vals, capped so that an append to
	// one sample's slice cannot reach its neighbour's.
	take := func(n int64) ([]float64, error) {
		if n < -1 || n > int64(len(vals)) {
			return nil, fmt.Errorf("%w: per-chip length %d with %d values left", snapshot.ErrCorrupt, n, len(vals))
		}
		if n < 0 {
			return nil, nil
		}
		col := vals[:n:n]
		vals = vals[n:]
		return col, nil
	}
	for i := range samples {
		s := &samples[i]
		w := 1 + i*seriesWords
		f := func(j int) float64 { return math.Float64frombits(uint64(words.At(w + j))) }
		s.TimeMs, s.Requests, s.ReadMeanMs, s.WriteMeanMs, s.QueueDepth = f(0), words.At(w+1), f(2), f(3), int(words.At(w+4))
		s.GCDebtPages, s.WAF, s.CMTHitRate = words.At(w+5), f(6), f(7)
		s.CumRequests, s.CumReads, s.CumWrites, s.CumReadLatSumMs, s.CumWriteLatSumMs = words.At(w+8), words.At(w+9), words.At(w+10), f(11), f(12)
		s.CumFlashReads, s.CumFlashWrites, s.CumErases, s.CumGCInvocations, s.CumHostPagesWritten = words.At(w+13), words.At(w+14), words.At(w+15), words.At(w+16), words.At(w+17)
		if s.ChipBusyFrac, err = take(words.At(w + 18)); err != nil {
			return nil, err
		}
		if s.ChipBusyMs, err = take(words.At(w + 19)); err != nil {
			return nil, err
		}
		custom := words.At(w + 20)
		if custom < -1 {
			return nil, fmt.Errorf("%w: custom length %d", snapshot.ErrCorrupt, custom)
		}
		if custom >= 0 {
			s.Custom = map[string]float64{}
		}
		prev := ""
		for j := int64(0); j < custom && dec.Err() == nil; j++ {
			k := dec.Str()
			if j > 0 && k <= prev {
				return nil, fmt.Errorf("%w: custom key %q after %q", snapshot.ErrCorrupt, k, prev)
			}
			s.Custom[k], prev = dec.F64(), k
		}
	}
	if len(vals) != 0 {
		return nil, fmt.Errorf("%w: %d per-chip values belong to no sample", snapshot.ErrCorrupt, len(vals))
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return samples, nil
}
