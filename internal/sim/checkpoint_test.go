package sim

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"across/internal/acrossftl"
	"across/internal/snapshot"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// agedBlob ages a runner, replays a little traffic so caches and clocks hold
// more than aging leaves, and returns its snapshot.
func agedBlob(t *testing.T, kind SchemeKind) []byte {
	t.Helper()
	r := newSnapRunner(t, kind)
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
	for _, kind := range snapKinds() {
		t.Run(string(kind), func(t *testing.T) {
			blob := agedBlob(t, kind)
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
			if cp.Kind != kind || cp.Conf != smallConf() {
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

// forkCase is one checkpoint the fork-by-copy tests open: every scheme
// NewScheme builds, checkpointed straight after
// aging and again in the middle of a replay.
type forkCase struct {
	name string
	kind SchemeKind
	blob []byte
}

func forkCases(t *testing.T) []forkCase {
	t.Helper()
	var cases []forkCase
	for _, kind := range snapKinds() {
		r := newSnapRunner(t, kind)
		if err := r.Age(DefaultAging()); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, forkCase{string(kind) + "/aged", kind, mustSnapshot(t, r)})
		if _, err := r.ReplayQD(smallTrace(t, 0.005), 4); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, forkCase{string(kind) + "/mid-replay", kind, mustSnapshot(t, r)})
	}
	return cases
}

// The mid-replay checkpoints hold the state an aged device does not: MRSM
// sub-pages waiting in the pack buffer, live across-page areas, dirty
// translation pages in a paged table's LRU. Without them the tests below
// would pass over columns that were never exercised.
func TestForkCasesHoldTransientState(t *testing.T) {
	table := map[string]string{"MRSM/mid-replay": "nodes", "Across-FTL/mid-replay": "amt"}
	for _, tc := range forkCases(t) {
		field, ok := table[tc.name]
		if !ok {
			continue
		}
		cp, err := OpenCheckpoint(tc.blob)
		if err != nil {
			t.Fatal(err)
		}
		scheme := reflect.ValueOf(cp.template.Scheme).Elem()
		dirty := false
		for n := scheme.FieldByName(field).Elem().FieldByName("lru").Elem().FieldByName("head"); !n.IsNil(); n = n.Elem().FieldByName("next") {
			dirty = dirty || n.Elem().FieldByName("dirty").Bool()
		}
		if !dirty {
			t.Errorf("%s: no dirty translation page in the %s table", tc.name, field)
		}
		if a, ok := cp.template.Scheme.(*acrossftl.Scheme); ok && a.AMT.Live() == 0 {
			t.Errorf("%s: no live across-page area", tc.name)
		}
	}
}

// A fork is the checkpointed state, and forking leaves the template alone:
// a fork re-snapshots to the blob; so does a second fork taken after the
// first has replayed; and so does the template itself, still.
func TestForkSnapshotsToTheBlob(t *testing.T) {
	reqs := smallTrace(t, 0.005)
	for _, tc := range forkCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := OpenCheckpoint(tc.blob)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			first := mustFork(t, cp)
			if !bytes.Equal(mustSnapshot(t, first), tc.blob) {
				t.Fatal("the fork's Snapshot() differs from the blob")
			}
			if _, err := first.ReplayQD(reqs, 4); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustSnapshot(t, mustFork(t, cp)), tc.blob) {
				t.Error("a fork taken after another fork replayed no longer snapshots to the blob")
			}
			if !bytes.Equal(mustSnapshot(t, cp.template), tc.blob) {
				t.Error("the template no longer snapshots to the blob: a fork wrote to it")
			}
		})
	}
}

// TestRunnerCheckpointMatchesOpenCheckpoint: a checkpoint taken straight from
// a live runner is the one OpenCheckpoint(r.Snapshot()) opens — same kind,
// configuration and size, forks that snapshot to the same blob — and it is
// detached from the runner, which goes on replaying without its forks seeing
// any of it.
func TestRunnerCheckpointMatchesOpenCheckpoint(t *testing.T) {
	reqs := smallTrace(t, 0.005)
	for _, kind := range snapKinds() {
		t.Run(string(kind), func(t *testing.T) {
			r := newSnapRunner(t, kind)
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReplayQD(reqs, 4); err != nil {
				t.Fatal(err)
			}
			blob := mustSnapshot(t, r)
			cp, err := r.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			opened, err := OpenCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Kind != opened.Kind || cp.Conf != opened.Conf || cp.Bytes() != opened.Bytes() {
				t.Fatalf("checkpoint of %s/%d bytes, the opened blob is %s/%d", cp.Kind, cp.Bytes(), opened.Kind, opened.Bytes())
			}
			if !bytes.Equal(mustSnapshot(t, mustFork(t, cp)), blob) {
				t.Fatal("a fork of the runner's checkpoint differs from the runner's snapshot")
			}
			if _, err := r.ReplayQD(reqs, 4); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(mustSnapshot(t, r), blob) || !bytes.Equal(mustSnapshot(t, mustFork(t, cp)), blob) {
				t.Fatal("the runner replayed on and its checkpoint moved with it")
			}
		})
	}
}

// TestFreshCheckpointIsNewRunner: for every entry of the scheme table, a fork
// of FreshCheckpoint is the runner NewRunner builds — the same snapshot
// bytes, and an identical Result on a short trace — and FreshCheckpoint
// refuses what NewRunner refuses.
func TestFreshCheckpointIsNewRunner(t *testing.T) {
	reqs := smallTrace(t, 0.005)
	for _, e := range schemes {
		t.Run(string(e.kind), func(t *testing.T) {
			cp, err := FreshCheckpoint(e.kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if cp.Kind != e.kind || cp.Conf != smallConf() || cp.Bytes() != 0 {
				t.Fatalf("fresh checkpoint is %s/%d bytes with config %+v", cp.Kind, cp.Bytes(), cp.Conf)
			}
			built, err := NewRunner(e.kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			forked := mustFork(t, cp)
			if !bytes.Equal(mustSnapshot(t, forked), mustSnapshot(t, built)) {
				t.Fatal("a fork of the fresh checkpoint does not snapshot to NewRunner's bytes")
			}
			want, err := built.ReplayQD(reqs, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := forked.ReplayQD(reqs, 4)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, want, got, string(e.kind))
		})
	}
	bad := smallConf()
	bad.Channels = 0
	if _, err := NewRunner(KindFTL, bad); err == nil {
		t.Fatal("NewRunner accepted an invalid config")
	}
	if _, err := FreshCheckpoint(KindFTL, bad); err == nil {
		t.Error("FreshCheckpoint accepted an invalid config")
	}
	if _, err := NewRunner("nope", smallConf()); err == nil {
		t.Fatal("NewRunner accepted an unknown kind")
	}
	if _, err := FreshCheckpoint("nope", smallConf()); err == nil {
		t.Error("FreshCheckpoint accepted an unknown kind")
	}
}

// forkScratch names the fields a fork need not take from its template:
// request-scoped scratch, callbacks bound to their own scheme, and observers.
// TestForkSharesNoState skips exactly these, so a field added to any state
// struct fails there until CopyState copies it or it is named here.
var forkScratch = map[string]bool{
	"ftl.Allocator.onMigrate": true, // bound to the owning scheme by its constructor
	"ftl.Allocator.salvage":   true, // likewise
	"ftl.Allocator.prefetch":  true, // likewise
	"ftl.Allocator.gcVictims": true, // test hook
}

// stateWalk compares two runners field by field through every pointer,
// slice, map and interface: anything but forkScratch must be equal, and no
// backing array, map or pointee may be the same memory on both sides.
type stateWalk struct {
	t    *testing.T
	seen map[[2]uintptr]bool
}

func (w *stateWalk) walk(path string, a, b reflect.Value) {
	if a.Kind() != b.Kind() || (a.Kind() != reflect.Invalid && a.Type() != b.Type()) {
		w.t.Errorf("%s: %v on one side, %v on the other", path, a.Kind(), b.Kind())
		return
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.t.Errorf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.t.Errorf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			w.t.Errorf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float64:
		if a.Float() != b.Float() {
			w.t.Errorf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.t.Errorf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().String() + "." + a.Type().Field(i).Name
			if !forkScratch[name] {
				w.walk(name, a.Field(i), b.Field(i))
			}
		}
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.t.Errorf("%s: nil on one side only", path)
			}
			return
		}
		if a.Kind() == reflect.Ptr {
			if a.Pointer() == b.Pointer() {
				w.t.Errorf("%s: both sides point at the same %v", path, a.Type().Elem())
				return
			}
			pair := [2]uintptr{a.Pointer(), b.Pointer()}
			if w.seen[pair] {
				return
			}
			w.seen[pair] = true
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: len %d (nil %v) vs len %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
			return
		}
		if a.Cap() > 0 && a.Pointer() == b.Pointer() {
			w.t.Errorf("%s: both sides share one backing array", path)
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			w.t.Errorf("%s: %d keys (nil %v) vs %d keys (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
			return
		}
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			w.t.Errorf("%s: both sides share one map", path)
			return
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); v.IsValid() {
				w.walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), v)
			} else {
				w.t.Errorf("%s: key %v on one side only", path, it.Key())
			}
		}
	default: // a func, a channel: nothing a copy could be checked against
		w.t.Errorf("%s: a %v is neither state the walk can compare nor listed in forkScratch", path, a.Kind())
	}
}

// CopyState copies every field and shares none: template against fork, and
// fork against fork.
func TestForkSharesNoState(t *testing.T) {
	for _, tc := range forkCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := OpenCheckpoint(tc.blob)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			a, b := mustFork(t, cp), mustFork(t, cp)
			for _, pair := range [][2]*Runner{{cp.template, a}, {a, b}} {
				w := stateWalk{t: t, seen: map[[2]uintptr]bool{}}
				w.walk("Runner", reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1]))
			}
		})
	}
}

// A fork replays as a Restore of the same blob does, open loop aside at
// queue depth 1 and 8.
func TestForkReplaysLikeRestore(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, tc := range forkCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := OpenCheckpoint(tc.blob)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			for _, qd := range []int{1, 8} {
				restored, err := Restore(tc.blob)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				want, err := restored.ReplayQD(reqs, qd)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mustFork(t, cp).ReplayQD(reqs, qd)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, want, got, fmt.Sprintf("fork at QD %d", qd))
			}
		})
	}
}

// Forks of one checkpoint may be taken and replayed concurrently (run under
// -race): every goroutine gets the same result.
func TestForkConcurrently(t *testing.T) {
	blob := agedBlob(t, KindAcross)
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
// the template's columns are copied straight into the new scheme's arrays,
// so the bytes a fork allocates stay within a quarter of the bytes it
// retains. Copying through per-column temporaries would double them.
func TestForkAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cp, err := OpenCheckpoint(agedBlob(t, kind))
			if err != nil {
				t.Fatal(err)
			}

			heap := liveHeap()
			kept := mustFork(t, cp)
			retained := float64(liveHeap()) - float64(heap)
			runtime.KeepAlive(kept)
			var before, after runtime.MemStats

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
			t.Logf("%s: fork allocates %.0f bytes in %.0f objects, retains %.0f (Bytes() %d)",
				kind, allocated, allocs, retained, cp.Bytes())
			if allocated > 1.25*retained {
				t.Errorf("fork allocates %.0f bytes for %.0f retained (%.2fx, budget 1.25x)",
					allocated, retained, allocated/retained)
			}
		})
	}
}

// TestSnapshotCodecAllocations bounds what the codec costs beyond what it
// returns, on the Experiment device: neither end holds a body, so a restore
// allocates the runner it returns and little else (the whole-body codec
// allocated 4.4x and 3.4x the runner for FTL and MRSM), and a snapshot the
// blob it returns, the pieces the blob was collected in and the packer's
// scratch (with a DEFLATE writer it allocated 12-13x the blob).
func TestSnapshotCodecAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	for _, kind := range []SchemeKind{KindFTL, KindMRSM} {
		t.Run(string(kind), func(t *testing.T) {
			r, err := NewRunner(kind, ssdconf.Experiment())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			blob := mustSnapshot(t, r)
			cp, err := OpenCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			allocated := func(f func() error) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := f(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc - before.TotalAlloc)
			}
			restore := allocated(func() error { _, err := Restore(blob); return err })
			snap := allocated(func() error { _, err := r.Snapshot(); return err })
			t.Logf("%s: body %d, blob %d, runner %d bytes; Restore allocates %.0f, Snapshot %.0f",
				kind, snapshot.BodyLen(blob), len(blob), cp.Bytes(), restore, snap)
			if budget := 1.25*float64(cp.Bytes()) + 1<<20; restore > budget {
				t.Errorf("Restore allocates %.0f bytes for a %d-byte runner (budget %.0f)", restore, cp.Bytes(), budget)
			}
			if budget := 3*float64(len(blob)) + 1<<20; snap > budget {
				t.Errorf("Snapshot allocates %.0f bytes for a %d-byte blob (budget %.0f)", snap, len(blob), budget)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/snapshot-v3 from storedSnapshot's recipe")

// storedSnapshots names the checkpoints testdata/snapshot-v3 holds, one per
// scheme. The directory keeps one more, across-hostcache.axsn, taken behind
// the retired host data cache (its version-2 body resealed as version 3):
// TestStoredCheckpointsAreRefused pins its refusal.
var storedSnapshots = []struct {
	file string
	kind SchemeKind
}{
	{"ftl.axsn", KindFTL},
	{"dftl.axsn", KindDFTL},
	{"mrsm.axsn", KindMRSM},
	{"across.axsn", KindAcross},
}

// storedSnapshot is the recipe of every stored checkpoint, version 1's
// included: a 2-channel device of 16 blocks of 16 pages, aged, then lun1 at
// scale 0.002 replayed open loop.
func storedSnapshot(t *testing.T, kind SchemeKind) []byte {
	t.Helper()
	conf := ssdconf.Table1()
	conf.Channels, conf.ChipsPerChan, conf.DiesPerChip, conf.PlanesPerDie = 2, 1, 1, 1
	conf.BlocksPerPlane, conf.PagesPerBlock = 16, 16
	r, err := NewRunner(kind, conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.LunProfiles()[0].Scale(0.002), conf.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(reqs); err != nil {
		t.Fatal(err)
	}
	return mustSnapshot(t, r)
}

// The container is version 3, byte for byte: testdata/snapshot-v3 holds one
// checkpoint per entry of storedSnapshots, written by the commit that
// introduced the version, and each must open here, pass the audit and
// re-snapshot to exactly the bytes it was read from. After a format change,
// `go test ./internal/sim -run TestStoredSnapshots -update` writes the next
// set (into a directory renamed for the new version).
func TestStoredSnapshotsStillLoad(t *testing.T) {
	for _, s := range storedSnapshots {
		t.Run(s.file, func(t *testing.T) {
			file := filepath.Join("testdata", "snapshot-v3", s.file)
			if *update {
				if err := os.WriteFile(file, storedSnapshot(t, s.kind), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if r.Kind != s.kind {
				t.Errorf("restored a %s runner, want %s", r.Kind, s.kind)
			}
			if !bytes.Equal(mustSnapshot(t, r), blob) {
				t.Error("re-snapshot differs from the stored bytes")
			}
		})
	}
}

// A checkpoint is a cache, so one the simulator can no longer build is
// refused, never migrated, by both openers and by name: testdata/snapshot-v1
// keeps one version-1 checkpoint and testdata/snapshot-v2 the version-2 set
// (ErrVersion), and testdata/snapshot-v3 one
// taken behind a 16-page host data cache, which the simulator no longer
// models (ErrCorrupt naming the host cache).
func TestStoredCheckpointsAreRefused(t *testing.T) {
	for _, tc := range []struct {
		file string
		want error
		says string
	}{
		{"snapshot-v1/ftl.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v2/ftl.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v2/dftl.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v2/mrsm.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v2/across.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v2/across-hostcache.axsn", snapshot.ErrVersion, "version"},
		{"snapshot-v3/across-hostcache.axsn", snapshot.ErrCorrupt, "host cache"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range openers {
				if err := o.open(blob); !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.says) {
					t.Errorf("%s: err = %v, want %v mentioning %q", o.name, err, tc.want, tc.says)
				}
			}
		})
	}
}

// BenchmarkCheckpoint prices the seam per device and scheme, on the
// Experiment device acrossd's jobs use and the 1 Mi-page gc-churn one: Open
// is what a blob costs once (unpack, hash, decode, audit, one trial fork),
// Fork what every runner costs. DESIGN §13 quotes it and CI runs it once.
func BenchmarkCheckpoint(b *testing.B) {
	for _, dev := range []struct {
		name string
		conf ssdconf.Config
	}{{"Experiment", ssdconf.Experiment()}, {"Scaled16", ssdconf.Scaled(16)}} {
		for _, kind := range Kinds() {
			r, err := NewRunner(kind, dev.conf)
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
			// Both ends of the codec, priced per byte of body moved.
			b.Run(dev.name+"/Snapshot/"+string(kind), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(snapshot.BodyLen(blob))
				for i := 0; i < b.N; i++ {
					if _, err := r.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(dev.name+"/Restore/"+string(kind), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(snapshot.BodyLen(blob))
				for i := 0; i < b.N; i++ {
					if _, err := Restore(blob); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(dev.name+"/Open/"+string(kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := OpenCheckpoint(blob); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(dev.name+"/Fork/"+string(kind), func(b *testing.B) {
				cp, err := OpenCheckpoint(blob)
				if err != nil {
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
}

// lazyColumns reports whether a checkpoint carries the flash aux column and
// the PMT AIdx column: their presence bytes.
func lazyColumns(t *testing.T, blob []byte) (aux, aidx bool) {
	t.Helper()
	reseal(t, blob, func(body []byte) {
		c := &bodyCursor{tb: t, body: body}
		c.tag("flash").col(1)
		c.col(4)
		aux = body[c.off] == 1
		c.tag("pmt").col(4)
		aidx = body[c.off] == 1
	})
	return aux, aidx
}

// Canonical form survives the presence bytes: they follow what the columns
// hold, never whether the lazy slices exist. An Across-FTL runner that has
// re-aligned one across-page write carries both columns; once the pages
// under the area are overwritten whole, nothing is tagged or remapped any
// more, the runner still holds both slices, and it seals to the bytes of the
// runners that never allocated them — the one Restore builds from those bytes
// and its fork — as a fork that copied the empty slices does.
func TestSnapshotIsCanonicalOverLazyColumns(t *testing.T) {
	r := newSnapRunner(t, KindAcross)
	spp := int64(r.Conf.SectorsPerPage())
	replay := func(reqs ...trace.Request) {
		t.Helper()
		if _, err := r.Replay(reqs); err != nil {
			t.Fatal(err)
		}
	}
	replay(trace.Request{Op: trace.OpWrite, Offset: spp - 2, Count: 4})
	if aux, aidx := lazyColumns(t, mustSnapshot(t, r)); !aux || !aidx {
		t.Fatalf("after an across-page write: aux column %v, AIdx column %v; want both", aux, aidx)
	}
	replay(trace.Request{Time: 1, Op: trace.OpWrite, Offset: 0, Count: int32(2 * spp)})
	blob := mustSnapshot(t, r)
	if aux, aidx := lazyColumns(t, blob); aux || aidx {
		t.Fatalf("with the area gone: aux column %v, AIdx column %v; want neither", aux, aidx)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*Runner{"Restore": restored, "fork of the runner": mustFork(t, cp), "fork of the blob": mustFork(t, opened)} {
		if !bytes.Equal(mustSnapshot(t, other), blob) {
			t.Errorf("%s seals to other bytes than the runner it equals", name)
		}
	}
}
