package service

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"across/internal/jobs"
	"across/internal/runspec"
	"across/internal/sim"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// agedSeeded is a tiny aged FTL replay; the seed gives each submission its
// own content key and trace while all of them share one aging key.
const agedSeeded = `{"type":"replay","scheme":"FTL","profile":"lun1","scale":0.001,"age":true,"seed":%d}`

func (c *checkpointCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Eight jobs sharing a stored checkpoint, submitted at once to a four-worker
// server (run under -race): the checkpoint is opened once, under the flight
// lock, and forked eight times outside it, and every job's result is the one
// a server running the same jobs one after another produces.
func TestSharedCheckpointOpensOnceForksConcurrently(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	submitAndWait(t, ts.URL, fmt.Sprintf(agedSeeded, 0)) // ages and stores the checkpoint

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, st := postJSON(t, ts.URL+"/api/v1/jobs", fmt.Sprintf(agedSeeded, i+1))
			if code != http.StatusAccepted {
				t.Errorf("submit %d = %d, want 202", i, code)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	results := make([][]byte, n)
	how := map[string]int{} // the restore spans' checkpoint attribute
	for i, id := range ids {
		final := pollState(t, ts.URL, id, 60*time.Second)
		if jobs.State(final.State) != jobs.StateSucceeded {
			t.Fatalf("job %s finished %s (error %q)", id, final.State, final.Error)
		}
		if !hasSpan(final, "restore") || hasSpan(final, "age") {
			t.Errorf("job %s spans = %v, want a restore span and no age", id, spanNames(final))
		}
		for _, sp := range final.Spans {
			if sp.Name != "restore" {
				continue
			}
			how[sp.Attrs["checkpoint"]]++
			// The one job that opened the blob says what it moved.
			blob, _ := strconv.Atoi(sp.Attrs["blob_bytes"])
			body, _ := strconv.Atoi(sp.Attrs["body_bytes"])
			if opened := sp.Attrs["checkpoint"] == "opened"; opened != (blob > 0) || opened != (body > blob) {
				t.Errorf("job %s restore attrs = %v", id, sp.Attrs)
			}
		}
		_, doc := fetchResult(t, ts.URL, id)
		results[i] = doc["result"]
	}
	if how["opened"] != 1 || how["cached"] != n-1 {
		t.Errorf("restore spans say %v, want one opened and %d cached", how, n-1)
	}
	m := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		"acrossd_snapshot_ages_total":     1,
		"acrossd_snapshot_opens_total":    1,
		"acrossd_snapshot_restores_total": n,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if got := srv.checkpoints.len(); got != 1 {
		t.Errorf("cache holds %d checkpoints, want 1", got)
	}

	_, serial := newTestServer(t, t.TempDir())
	for i := 0; i < n; i++ {
		st := submitAndWait(t, serial.URL, fmt.Sprintf(agedSeeded, i+1))
		_, doc := fetchResult(t, serial.URL, st.ID)
		if !bytes.Equal(doc["result"], results[i]) {
			t.Errorf("job %d: concurrent fork's result differs from the serial run's", i)
		}
	}
}

// A stored checkpoint that does not open — garbage, a valid snapshot of
// another device, one of a retired format version, or one taken behind the
// retired host data cache — is not cached, and the
// job says why, counts it and ages instead; the checkpoint that aging stores
// over it then serves the next job, and a restarted server.
func TestUnusableStoredCheckpointIsNotCached(t *testing.T) {
	fresh := func(kind sim.SchemeKind, conf ssdconf.Config) []byte {
		r, err := sim.NewRunner(kind, conf)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	flipped := fresh(sim.KindFTL, ssdconf.Experiment())
	flipped[len(flipped)/2] ^= 0x40
	version1, err := os.ReadFile("../sim/testdata/snapshot-v1/ftl.axsn")
	if err != nil {
		t.Fatal(err)
	}
	hostCached, err := os.ReadFile("../sim/testdata/snapshot-v3/across-hostcache.axsn")
	if err != nil {
		t.Fatal(err)
	}
	akey := agingKeyOf(t, runspec.Spec{Type: "replay", Scheme: "FTL", Profile: "lun1", Age: true})
	restoreAttrs := func(st jobStatus) map[string]string {
		for _, sp := range st.Spans {
			if sp.Name == "restore" {
				return sp.Attrs
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name, reason string
		blob         []byte
	}{
		{"garbage", "corrupt", []byte("AXSN but not really a snapshot")},
		{"bit-flipped", "corrupt", flipped},
		{"other-device", "drift", fresh(sim.KindFTL, ssdconf.Experiment().WithPageBytes(4096))},
		{"other-scheme", "drift", fresh(sim.KindDFTL, ssdconf.Experiment())},
		{"version-1", "version", version1},
		{"host-cache", "corrupt", hostCached},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newTestServer(t, dir)
			if err := srv.Store().Put(akey, &SnapshotEntry{Key: akey, Kind: "snapshot", Scheme: "FTL", Blob: tc.blob}); err != nil {
				t.Fatal(err)
			}
			first := submitAndWait(t, ts.URL, fmt.Sprintf(agedSeeded, 1))
			if !hasSpan(first, "restore") || !hasSpan(first, "age") {
				t.Errorf("first job spans = %v, want a failed restore and then an age", spanNames(first))
			}
			if a := restoreAttrs(first); a["checkpoint"] != "unusable" || a["reason"] != tc.reason {
				t.Errorf("first job's restore span says %v, want checkpoint=unusable reason=%s", a, tc.reason)
			}
			if opens := counterValue(srv, "snapshot_opens"); opens != 0 {
				t.Errorf("snapshot_opens = %v after an unusable checkpoint, want 0", opens)
			}
			if m := scrapeMetrics(t, ts.URL); m["acrossd_snapshot_unusable_total"] != 1 {
				t.Errorf("acrossd_snapshot_unusable_total = %v, want 1", m["acrossd_snapshot_unusable_total"])
			}
			if got := srv.checkpoints.len(); got != 0 {
				t.Errorf("cache holds %d checkpoints after an unusable one, want 0", got)
			}
			var stored SnapshotEntry
			if ok, err := srv.Store().Get(akey, &stored); !ok || err != nil {
				t.Fatalf("the aging key's entry: found %v, err %v", ok, err)
			}
			if _, err := snapshot.NewDecoder(stored.Blob); err != nil {
				t.Errorf("the unusable checkpoint was not overwritten with one of this version: %v", err)
			}

			second := submitAndWait(t, ts.URL, fmt.Sprintf(agedSeeded, 2))
			if !hasSpan(second, "restore") || hasSpan(second, "age") {
				t.Errorf("second job spans = %v, want a restore span and no age", spanNames(second))
			}
			if ages, opens, unusable := counterValue(srv, "snapshot_ages"), counterValue(srv, "snapshot_opens"), counterValue(srv, "snapshot_unusable"); ages != 1 || opens != 1 || unusable != 1 {
				t.Errorf("snapshot_ages = %v, snapshot_opens = %v, snapshot_unusable = %v; want 1, 1 and 1", ages, opens, unusable)
			}

			ts.Close()
			srv.Close()
			restarted, rts := newTestServer(t, dir)
			again := submitAndWait(t, rts.URL, fmt.Sprintf(agedSeeded, 3))
			if a := restoreAttrs(again); a["checkpoint"] != "opened" || hasSpan(again, "age") {
				t.Errorf("on a restarted server the job's restore span says %v (spans %v), want checkpoint=opened and no age", a, spanNames(again))
			}
			if unusable := counterValue(restarted, "snapshot_unusable"); unusable != 0 {
				t.Errorf("restarted server: snapshot_unusable = %v, want 0", unusable)
			}
		})
	}
}

// The cache is bounded by the bytes of the templates it holds: going over
// the budget evicts whichever entry was forked longest ago, and a checkpoint
// larger than the whole budget is not kept at all.
func TestCheckpointCacheEvictsLeastRecentlyForked(t *testing.T) {
	conf := ssdconf.Table1()
	conf.Channels, conf.ChipsPerChan, conf.DiesPerChip, conf.PlanesPerDie = 2, 1, 1, 1
	conf.BlocksPerPlane, conf.PagesPerBlock = 16, 8
	open := func() *sim.Checkpoint {
		r, err := sim.NewRunner(sim.KindFTL, conf)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := sim.OpenCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	a, b, c := open(), open(), open()
	size := a.Bytes()

	cache := newCheckpointCache(2*size + size/2)
	cache.put("a", a)
	cache.put("b", b)
	if cache.get("a") != a { // a is now the more recently forked
		t.Fatal("a missing before the budget was reached")
	}
	cache.put("c", c)
	if cache.get("b") != nil {
		t.Error("b, the least recently forked, survived going over budget")
	}
	if cache.get("a") != a || cache.get("c") != c {
		t.Error("a or c evicted; only b should have gone")
	}
	// Three gets found their key (a, then a and c after the miss on b), one
	// put evicted, and two templates remain.
	if hits, evictions, bytes := cache.stats(); hits != 3 || evictions != 1 || bytes != 2*size {
		t.Errorf("cache reports %d hits, %d evictions, %d bytes; want 3, 1 and two %d-byte templates", hits, evictions, bytes, size)
	}

	small := newCheckpointCache(size - 1)
	small.put("a", a)
	if small.get("a") != nil || small.bytes != 0 {
		t.Error("a checkpoint larger than the whole budget was cached")
	}
}
