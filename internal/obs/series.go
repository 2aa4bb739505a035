package obs

import (
	"fmt"
	"math"
	"slices"

	"across/internal/snapshot"
)

// A stored sample series is a snapshot container (own magic, SHA-256 over the
// body, not compressed) whose body is one i64 column and a run of strings:
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
	enc := snapshot.NewRawContainer(seriesMagic, seriesVersion)
	enc.I64(int64(1 + len(samples)*seriesWords + chipVals)) // the column's count, then its words
	enc.I64(int64(len(samples)))
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
			enc.I64(v)
		}
	}
	for i := range samples {
		for _, col := range [2][]float64{samples[i].ChipBusyFrac, samples[i].ChipBusyMs} {
			for _, v := range col {
				enc.F64(v)
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
	return enc.Finish()
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
	// The count is believed only as far as the words present bear it out.
	words := dec.Count(8)
	n := dec.I64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if words == 0 || n < 0 || n > int64((words-1)/seriesWords) {
		return nil, fmt.Errorf("%w: series of %d words cannot hold the samples it counts", snapshot.ErrCorrupt, words)
	}
	samples := make([]Sample, n)
	lens := make([][3]int64, n) // of ChipBusyFrac, ChipBusyMs and Custom
	for i := range samples {
		s := &samples[i]
		s.TimeMs, s.Requests, s.ReadMeanMs, s.WriteMeanMs, s.QueueDepth = dec.F64(), dec.I64(), dec.F64(), dec.F64(), int(dec.I64())
		s.GCDebtPages, s.WAF, s.CMTHitRate = dec.I64(), dec.F64(), dec.F64()
		s.CumRequests, s.CumReads, s.CumWrites, s.CumReadLatSumMs, s.CumWriteLatSumMs = dec.I64(), dec.I64(), dec.I64(), dec.F64(), dec.F64()
		s.CumFlashReads, s.CumFlashWrites, s.CumErases, s.CumGCInvocations, s.CumHostPagesWritten = dec.I64(), dec.I64(), dec.I64(), dec.I64(), dec.I64()
		lens[i] = [3]int64{dec.I64(), dec.I64(), dec.I64()}
	}
	vals := make([]float64, words-1-len(samples)*seriesWords)
	for i := range vals {
		vals[i] = dec.F64()
	}
	if err := dec.Err(); err != nil {
		return nil, err
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
		if s.ChipBusyFrac, err = take(lens[i][0]); err != nil {
			return nil, err
		}
		if s.ChipBusyMs, err = take(lens[i][1]); err != nil {
			return nil, err
		}
		custom := lens[i][2]
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
