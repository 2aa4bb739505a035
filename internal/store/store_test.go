package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type entry struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func TestHashJSONDeterministic(t *testing.T) {
	type keyMaterial struct {
		Scheme string
		Scale  float64
		Seed   int64
	}
	a, err := HashJSON(keyMaterial{"Across-FTL", 0.05, 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := HashJSON(keyMaterial{"Across-FTL", 0.05, 7})
	if a != b {
		t.Fatalf("same material hashed differently: %s vs %s", a, b)
	}
	c, _ := HashJSON(keyMaterial{"Across-FTL", 0.05, 8})
	if a == c {
		t.Fatal("different material collided")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("roundtrip")
	if s.Has(key) {
		t.Fatal("Has on empty store")
	}
	want := entry{Name: "lun1", Score: 3.14}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got entry
	ok, err := s.Get(key, &got)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
	if !s.Has(key) {
		t.Fatal("Has = false after Put")
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	key, _ := HashJSON("missing")
	var v entry
	ok, err := s.Get(key, &v)
	if ok || err != nil {
		t.Fatalf("missing entry: ok=%v err=%v", ok, err)
	}
}

// A truncated entry must not poison its key: Get moves it aside and reports
// a miss, after which Has and Keys agree the key is absent and a fresh Put
// is served normally.
func TestGetQuarantinesCorruptEntry(t *testing.T) {
	s, _ := Open(t.TempDir())
	key, _ := HashJSON("corrupt")
	if err := s.Put(key, entry{Name: "lun1", Score: 1}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(s.Dir(), key[:2], key+".json")
	if err := os.Truncate(p, 5); err != nil {
		t.Fatal(err)
	}
	var v entry
	if ok, err := s.Get(key, &v); ok || err != nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want a miss", ok, err)
	}
	if s.Has(key) || s.Len() != 0 {
		t.Fatalf("quarantined key still listed: Has=%v Len=%d", s.Has(key), s.Len())
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	want := entry{Name: "lun1", Score: 2}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get(key, &v); !ok || err != nil || v != want {
		t.Fatalf("after re-Put: ok=%v err=%v v=%+v", ok, err, v)
	}
}

func TestMalformedKeyRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, key := range []string{"", "short", "../../etc/passwd", "ABCDEF0123456789", "zz40aa0011223344"} {
		if err := s.Put(key, entry{}); err == nil {
			t.Errorf("Put accepted malformed key %q", key)
		}
		if s.Has(key) {
			t.Errorf("Has true for malformed key %q", key)
		}
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	key, _ := HashJSON("persist")
	{
		s, _ := Open(dir)
		if err := s.Put(key, entry{Name: "persisted"}); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got entry
	ok, err := s2.Get(key, &got)
	if !ok || err != nil || got.Name != "persisted" {
		t.Fatalf("after reopen: ok=%v err=%v got=%+v", ok, err, got)
	}
}

func TestKeysAndDelete(t *testing.T) {
	s, _ := Open(t.TempDir())
	var want []string
	for _, name := range []string{"a", "b", "c"} {
		k, _ := HashJSON(name)
		want = append(want, k)
		if err := s.Put(k, entry{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || s.Len() != 3 {
		t.Fatalf("Keys = %v (Len %d), want 3 entries", keys, s.Len())
	}
	for _, k := range want {
		found := false
		for _, got := range keys {
			if got == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %s missing from %v", k, keys)
		}
	}
	if err := s.Delete(want[0]); err != nil {
		t.Fatal(err)
	}
	if s.Has(want[0]) || s.Len() != 2 {
		t.Fatal("Delete did not remove the entry")
	}
	if err := s.Delete(want[0]); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestAtomicPutLeavesNoTempDebris checks the temp file is renamed away and
// an overwrite fully replaces the old entry.
func TestAtomicPutLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key, _ := HashJSON("overwrite")
	if err := s.Put(key, entry{Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, entry{Name: "v2", Score: 9}); err != nil {
		t.Fatal(err)
	}
	var got entry
	if ok, err := s.Get(key, &got); !ok || err != nil || got.Name != "v2" {
		t.Fatalf("overwrite: ok=%v err=%v got=%+v", ok, err, got)
	}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("temp debris left behind: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutGet hammers one store from many goroutines (run with
// -race).
func TestConcurrentPutGet(t *testing.T) {
	s, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key, _ := HashJSON([2]int{g % 4, i % 5}) // deliberate key sharing
				if err := s.Put(key, entry{Name: "n", Score: float64(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				var v entry
				if ok, err := s.Get(key, &v); !ok || err != nil {
					t.Errorf("Get: ok=%v err=%v", ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
