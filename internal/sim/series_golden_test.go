package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"across/internal/obs"
	"across/internal/trace"
)

// seriesCase is one replay shape the sample-series digests pin: a request
// stream and the host queue depth it is replayed at (0 = open loop).
type seriesCase struct {
	name string
	reqs []trace.Request
	qd   int
}

// seriesCases builds the five shapes: lun1 at ×0.01 in trace order, the
// same requests shuffled within runs of 64 (arrivals go backwards), the
// same requests squeezed into one arrival per 10 µs (the backlog builds
// into the thousands), the sorted stream at QD 8 and the
// shuffled one at QD 4 (arrivals deferred to earlier completions).
func seriesCases(t *testing.T) []seriesCase {
	sorted := smallTrace(t, 0.01)
	shuffled := append([]trace.Request(nil), sorted...)
	rng := rand.New(rand.NewSource(43))
	for lo := 0; lo < len(shuffled); lo += 64 {
		b := shuffled[lo:min(lo+64, len(shuffled))]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	burst := append([]trace.Request(nil), sorted...)
	for i := range burst {
		burst[i].Time = float64(i) * 0.01
	}
	return []seriesCase{
		{"sorted", sorted, 0},
		{"shuffled", shuffled, 0},
		{"burst", burst, 0},
		{"qd8", sorted, 8},
		{"shuffled-qd4", shuffled, 4},
	}
}

// goldenSeries is the SHA-256 of obs.EncodeSeries of each scheme × case
// replay on an aged small device, sampled on a 5 ms grid. The digests were
// recorded before the sampler counted its queue depth lazily; a change to
// how the engine feeds the sampler must leave every one of them in place.
var goldenSeries = map[string]string{
	"FTL/sorted":              "0260ea31096584ef9c315db2a5cd116f4391fb5e8904aba264d46c90d8d38e71",
	"FTL/shuffled":            "49a51b648b1f472912c66ba0d00e5732c6978a9b30129c8f375fd14c173e0511",
	"FTL/burst":               "bbef45378f24d0912ff2034e557337e2ff398a7a852a276fa5a5d0acbad3f986",
	"FTL/qd8":                 "2d08d605dc2224485d85d95a5529aa5e427a71c9db47db68c9e48d9b0d3e4747",
	"FTL/shuffled-qd4":        "14d410ce4dd86075ead7e221a726d820da5746800d969a50493882bdd3213d19",
	"MRSM/sorted":             "f0e3b59bb6a2ae4103ca4646664b735cf6629b595c9f9266401ef06179784169",
	"MRSM/shuffled":           "98c30885c16f8246a7913233823fcb1b4351b11d16dae80d4a82bb06c01b7897",
	"MRSM/burst":              "80125561b098cf38e6a094b5628a8041aa8706691879ddf3946336caa3324774",
	"MRSM/qd8":                "74afbd64154e9492cc8918288b960600f528778fb3bf5c8db7eaea3cea1b4120",
	"MRSM/shuffled-qd4":       "dcafe2cc4106da906b047bb5bf8b073536fb3a93e1686a0e6801498d82a6b71b",
	"Across-FTL/sorted":       "329cc891c4a72d462854742f77a406bd20d925e7f02c52fa388d04cc4537be4b",
	"Across-FTL/shuffled":     "e2a1affcd137c719cb84dddf973c0962475049040390bb88e5e2f761ca4c9f05",
	"Across-FTL/burst":        "586d816b5c93e90e97217134a5add37eacc3980ac5526ff115a42d9864c269de",
	"Across-FTL/qd8":          "ec9236d55c09aa8cd4494b6eb5b95868edbfa7970d6d98ad0f241f1d319365ad",
	"Across-FTL/shuffled-qd4": "9feaad7dccb444e68b16078fad751fba6a22e428a1be80ec5cbf973d7b0722cf",
	"DFTL/sorted":             "a222e7267ae3ff5732072903b5d0150a8af934d9c302cfce4d8d1543b0543ffa",
	"DFTL/shuffled":           "c128074faa97a23365d1ba6bece1404fe905a6d55ff17aef4f70dc5bfdc9c1f1",
	"DFTL/burst":              "55675161b29a75847104b4678a93ac3545734175c4047be91bedb0ea545779a9",
	"DFTL/qd8":                "4ce61ec8ba5d566cb2ce90e41395c58a4613f121827d648c723d723c4dbc7544",
	"DFTL/shuffled-qd4":       "6bb10602874dfa7c2560bde3bc36875e7f09b2e215a2fdfaf45c6a7a895f6d28",
}

// TestSampleSeriesGolden pins every sample series byte for byte: queue
// depths, busy fractions, gauges and cumulative fields at every boundary.
func TestSampleSeriesGolden(t *testing.T) {
	cases := seriesCases(t)
	for _, e := range schemes {
		for _, c := range cases {
			name := string(e.kind) + "/" + c.name
			t.Run(name, func(t *testing.T) {
				r, err := NewRunner(e.kind, smallConf())
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Age(DefaultAging()); err != nil {
					t.Fatal(err)
				}
				smp, err := obs.NewSampler(5)
				if err != nil {
					t.Fatal(err)
				}
				r.SetSampler(smp)
				if _, err := r.ReplayQD(c.reqs, c.qd); err != nil {
					t.Fatal(err)
				}
				blob, err := obs.EncodeSeries(smp.Samples())
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				got := hex.EncodeToString(sum[:])
				deepest := 0
				for _, s := range smp.Samples() {
					deepest = max(deepest, s.QueueDepth)
				}
				t.Logf("%d samples, deepest queue %d", len(smp.Samples()), deepest)
				if want := goldenSeries[name]; got != want {
					t.Errorf("series digest %s, want %s", got, want)
				}
			})
		}
	}
}
