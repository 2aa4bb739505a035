package workload

import (
	"math"
	"math/rand"
	"testing"
)

// streamOp is one draw, made the same way from a stream and from a
// rand.Rand; arg picks the bound of a bounded draw.
func streamOp(op, arg byte, s *stream, exp *rand.Rand, r *rand.Rand) (got, want float64) {
	switch op % 8 {
	case 0:
		return float64(s.Int63()), float64(r.Int63())
	case 1:
		return s.Float64(), r.Float64()
	case 2: // powers of two
		n := 1 << (arg % 63)
		return float64(s.Intn(n)), float64(r.Intn(n))
	case 3: // small n, odd ones among them
		n := int(arg) + 1
		return float64(s.Intn(n)), float64(r.Intn(n))
	case 4: // n near 2^31, where Int31n rejects often and Intn turns to Int63n
		n := 1<<30 + 1 + int(arg)<<21
		if arg%2 == 1 {
			n = 1<<31 - 1 + int(arg/2)*(1<<24+3)
		}
		return float64(s.Intn(n)), float64(r.Intn(n))
	case 5: // n near 2^62: half the draws land within n of the top
		n := math.MaxInt64/2 + int64(arg)*(1<<53+1)
		return float64(s.Int63n(n)), float64(r.Int63n(n))
	case 6:
		n := int64(arg)*1e6 + 7
		return float64(s.Int63n(n)), float64(r.Int63n(n))
	default:
		return exp.ExpFloat64(), r.ExpFloat64()
	}
}

// TestStreamMatchesMathRand: a stream yields, draw for draw, what
// rand.New(rand.NewSource(seed)) yields, over mixed draws of every kind the
// generator makes and some it does not, ExpFloat64 through rand.New.
func TestStreamMatchesMathRand(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, seed := range []int64{0, -1, math.MaxInt64, 101, 20230801} {
		s := new(stream)
		s.Seed(seed)
		exp := rand.New(s)
		r := rand.New(rand.NewSource(seed))
		script := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			op, arg := byte(script.Intn(8)), byte(script.Intn(256))
			if got, want := streamOp(op, arg, s, exp, r); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("seed %d, draw %d (op %d, arg %d): stream %v, math/rand %v", seed, i, op, arg, got, want)
			}
		}
	}
}

// FuzzStreamMatchesMathRand: any seed and any script of draws (two bytes a
// draw: which kind, and its bound) agree with math/rand.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 0, 1, 0, 2, 5, 3, 6, 4, 255, 5, 0, 6, 9, 7, 0})
	f.Add(int64(-1), []byte{4, 0, 4, 1, 5, 255})
	f.Add(int64(math.MaxInt64), []byte{7, 0, 7, 0, 1, 1})
	f.Add(int64(101), []byte{3, 6, 3, 7, 2, 62})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		s := new(stream)
		s.Seed(seed)
		exp := rand.New(s)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(script); i += 2 {
			if got, want := streamOp(script[i], script[i+1], s, exp, r); got != want {
				t.Fatalf("seed %d, draw %d: stream %v, math/rand %v", seed, i/2, got, want)
			}
		}
	})
}
