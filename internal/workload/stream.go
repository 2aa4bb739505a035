package workload

import "math/rand"

// The generator's draws are math/rand's: every trace, content key and
// recorded result follows from rand.NewSource(seed) and the algorithms of
// rand.Rand. stream yields that sequence without the Rand → Source
// interface call per draw, and without the division Rand pays for every
// bounded draw.
//
// math/rand's source is the additive lagged-Fibonacci generator
// x_n = x_{n-607} + x_{n-273} (mod 2^64). stream keeps the last 607 terms
// in a ring; the seeding stays math/rand's own (its table is not copied
// here): the first 607 outputs of a seeded source determine the register
// that produced them, since x_{n-607} = x_n − x_{n-273}.
const (
	streamLen = 607
	streamTap = 273
)

// stream is a rand.Source64 that yields what rand.NewSource(seed) yields,
// and whose Float64, Intn and Int63n are rand.Rand's.
type stream struct {
	i   int               // slot of the next term: vec[i] holds x_{n-607}
	vec [streamLen]uint64 // x_n is stored in vec[n mod 607]
}

// Seed seeds the stream as rand.NewSource(seed) is seeded.
func (s *stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	// y[k] is x_{k+1}, the source's (k+1)th output. The register is
	// x_{-606} … x_0, each x_m in vec[m mod 607].
	var y [streamLen]uint64
	for k := range y {
		y[k] = src.Uint64()
	}
	// Rewind x_{n-607} = x_n − x_{n-273} from n = 607 down. Below n = 274
	// the subtrahend is itself a register term, rewound at n + 334.
	for n := streamLen; n >= 1; n-- {
		var prev uint64 // x_{n-273}
		if n > streamTap {
			prev = y[n-streamTap-1]
		} else {
			prev = s.vec[(n-streamTap+streamLen)%streamLen]
		}
		s.vec[n%streamLen] = y[n-1] - prev
	}
	s.i = 1
}

// Uint64 steps the recurrence once.
func (s *stream) Uint64() uint64 {
	i := s.i
	j := i + streamLen - streamTap
	if j >= streamLen {
		j -= streamLen
	}
	v := s.vec[i] + s.vec[j]
	s.vec[i] = v
	if i++; i == streamLen {
		i = 0
	}
	s.i = i
	return v
}

// Int63 is rand.Source's.
func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 is rand.Rand's: a retry when the quotient rounds up to 1.
func (s *stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.Rand's: Int31n for every n that fits 31 bits.
func (s *stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

// int31n is rand.Rand's Int31n for n > 0: a mask for a power of two, else
// rejection above the largest multiple of n. A draw at or below 2^31 − n is
// under every possible threshold, so the threshold is computed only above.
func (s *stream) int31n(n int32) int32 {
	v := int32(s.Int63() >> 32)
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > 1<<31-1-n {
		max := int32(1<<31 - 1 - (1<<31)%uint32(n))
		for v > max {
			v = int32(s.Int63() >> 32)
		}
	}
	return v % n
}

// Int63n is rand.Rand's, with int31n's lazy threshold.
func (s *stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	v := s.Int63()
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > 1<<63-1-n {
		max := int64(1<<63 - 1 - (1<<63)%uint64(n))
		for v > max {
			v = s.Int63()
		}
	}
	return v % n
}
