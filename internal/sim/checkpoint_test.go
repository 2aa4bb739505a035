package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"across/internal/ssdconf"
)

// agedBlob ages a runner (host-cache wrapped when cachePages > 0), replays a
// little traffic so caches and clocks hold more than aging leaves, and
// returns its snapshot.
func agedBlob(t *testing.T, kind SchemeKind, cachePages int) []byte {
	t.Helper()
	r := newSnapRunner(t, kind, cachePages)
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReplayQD(smallTrace(t, 0.005), 4); err != nil {
		t.Fatal(err)
	}
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func mustFork(t *testing.T, cp *Checkpoint) *Runner {
	t.Helper()
	r, err := cp.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	return r
}

func mustSnapshot(t *testing.T, r *Runner) []byte {
	t.Helper()
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return blob
}

// The seam's guarantee: a fork is the runner Restore would have built — the
// first one (which OpenCheckpoint decoded and audited) and every later one
// (decoded from the shared body) alike. Each re-snapshots to the blob and
// replays bit-identically to a Restore of it. And no fork aliases the body:
// after one fork has replayed, the next still snapshots to the blob.
func TestForkMatchesRestore(t *testing.T) {
	for _, tc := range []struct {
		kind       SchemeKind
		cachePages int
	}{
		{KindFTL, 0}, {KindMRSM, 0}, {KindAcross, 0}, {KindDFTL, 0}, {KindAcross, 64},
	} {
		name := string(tc.kind)
		if tc.cachePages > 0 {
			name += "+cache"
		}
		t.Run(name, func(t *testing.T) {
			blob := agedBlob(t, tc.kind, tc.cachePages)
			reqs := smallTrace(t, 0.01)

			restored, err := Restore(blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if !bytes.Equal(mustSnapshot(t, restored), blob) {
				t.Fatal("Restore(blob).Snapshot() differs from the blob")
			}
			want, err := restored.ReplayQD(reqs, 8)
			if err != nil {
				t.Fatal(err)
			}

			cp, err := OpenCheckpoint(blob)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			if cp.Kind != tc.kind || cp.Conf != smallConf() {
				t.Errorf("checkpoint describes %s on %+v", cp.Kind, cp.Conf)
			}
			for _, label := range []string{"first fork", "second fork", "third fork"} {
				f := mustFork(t, cp)
				if !bytes.Equal(mustSnapshot(t, f), blob) {
					t.Fatalf("%s: Snapshot() differs from the blob", label)
				}
				// The replay rewrites this fork's state; the next fork's
				// snapshot check shows none of it reached the shared body.
				got, err := f.ReplayQD(reqs, 8)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, want, got, label)
			}
		})
	}
}

// Forks of one checkpoint may be taken and replayed concurrently (run under
// -race): every goroutine gets the same result.
func TestForkConcurrently(t *testing.T) {
	blob := agedBlob(t, KindAcross, 0)
	reqs := smallTrace(t, 0.005)
	cp, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	results := make([]*Result, n)
	errs := make(chan error, n) // one send per goroutine
	for i := 0; i < n; i++ {
		go func() {
			r, err := cp.Fork()
			if err == nil {
				results[i], err = r.ReplayQD(reqs, 4)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		assertIdentical(t, results[0], results[i], "concurrent fork")
	}
}

// TestForkAllocations bounds what a fork costs beyond the state it returns:
// the decoders write each slab straight into the new scheme's arrays, so the
// bytes a fork allocates stay within a quarter of the bytes it retains.
// Decoding through per-column temporaries, as the codec once did, doubles
// them.
func TestForkAllocations(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cp, err := OpenCheckpoint(agedBlob(t, kind, 0))
			if err != nil {
				t.Fatal(err)
			}
			mustFork(t, cp) // the runner the open built; later forks decode

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			kept := mustFork(t, cp)
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			runtime.KeepAlive(kept)

			const runs = 3
			var forkErr error
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := cp.Fork(); err != nil {
					forkErr = err
				}
			})
			runtime.ReadMemStats(&after)
			if forkErr != nil {
				t.Fatal(forkErr)
			}
			// AllocsPerRun calls the function once more than it counts.
			allocated := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			t.Logf("%s: fork allocates %.0f bytes in %.0f objects, retains %.0f (body %d)",
				kind, allocated, allocs, retained, cp.BodyBytes())
			if allocated > 1.25*retained {
				t.Errorf("fork allocates %.0f bytes for %.0f retained (%.2fx, budget 1.25x)",
					allocated, retained, allocated/retained)
			}
		})
	}
}

// The container is still version 1, byte for byte: testdata/snapshot-v1
// holds checkpoints written by the commit before the slab codec (a 2-channel
// 16×16-page device, aged, then a short replay), and each must open here
// and re-snapshot to exactly the bytes it was read from.
func TestStoredSnapshotsStillLoad(t *testing.T) {
	files, err := filepath.Glob("testdata/snapshot-v1/*.axsn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no stored snapshots found (err %v)", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			blob, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if !bytes.Equal(mustSnapshot(t, r), blob) {
				t.Error("re-snapshot differs from the stored bytes")
			}
		})
	}
}

// BenchmarkCheckpoint prices the seam on the Experiment device, per scheme:
// Open is what a blob costs once (inflate, hash, decode, audit), Fork what
// every runner after the first costs.
func BenchmarkCheckpoint(b *testing.B) {
	for _, kind := range Kinds() {
		r, err := NewRunner(kind, ssdconf.Experiment())
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Age(DefaultAging()); err != nil {
			b.Fatal(err)
		}
		blob, err := r.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Open/"+string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OpenCheckpoint(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Fork/"+string(kind), func(b *testing.B) {
			cp, err := OpenCheckpoint(blob)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cp.Fork(); err != nil { // the runner the open built
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Fork(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
