package experiments

import (
	"sync"
	"testing"

	"across/internal/trace"
)

// TestTraceSingleflight hammers Session.Trace from many goroutines — same
// profile and different profiles interleaved — and checks each trace is
// generated exactly once: every caller for a given profile must get the
// same backing array, and concurrent access must be race-free (run with
// -race).
func TestTraceSingleflight(t *testing.T) {
	s := quickSession(t)
	profiles := s.Luns()[:3]

	const goroutines = 32
	const rounds = 8
	got := make([][]([]trace.Request), len(profiles))
	for i := range got {
		got[i] = make([][]trace.Request, goroutines*rounds)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Rotate the starting profile per goroutine so same-profile
				// and cross-profile contention both happen.
				for off := 0; off < len(profiles); off++ {
					pi := (g + off) % len(profiles)
					reqs, err := s.Trace(profiles[pi])
					if err != nil {
						t.Errorf("Trace(%s): %v", profiles[pi].Name, err)
						return
					}
					if len(reqs) == 0 {
						t.Errorf("Trace(%s) returned no requests", profiles[pi].Name)
						return
					}
					if off == 0 {
						got[pi][g*rounds+r] = reqs
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Exactly-once generation: all callers of one profile share one backing
	// array. (Generating twice would hand out distinct allocations.)
	for pi, traces := range got {
		var canon *trace.Request
		for _, reqs := range traces {
			if reqs == nil {
				continue
			}
			if canon == nil {
				canon = &reqs[0]
				continue
			}
			if &reqs[0] != canon {
				t.Fatalf("profile %s generated more than once: distinct backing arrays", profiles[pi].Name)
			}
		}
		if canon == nil {
			t.Fatalf("profile %s never sampled", profiles[pi].Name)
		}
	}

	// Distinct profiles must not share traces.
	a, _ := s.Trace(profiles[0])
	b, _ := s.Trace(profiles[1])
	if &a[0] == &b[0] {
		t.Fatal("distinct profiles share one trace")
	}
}
