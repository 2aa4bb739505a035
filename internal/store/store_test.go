package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
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
	if debris := tempDebris(t, dir); len(debris) != 0 {
		t.Errorf("temp debris left behind: %v", debris)
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

func tempDebris(t *testing.T, dir string) []string {
	t.Helper()
	var debris []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp-") {
			debris = append(debris, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return debris
}

// TestSiblingLifecycle: a sibling is not an entry — Keys, Len and Has do not
// see it — it outlives a Put of its entry and goes with Delete.
func TestSiblingLifecycle(t *testing.T) {
	s, _ := Open(t.TempDir())
	key, _ := HashJSON("sibling")
	const ext, body = ".samples.ndjson", "{\"t_ms\":1}\n{\"t_ms\":2}\n"
	if _, err := s.OpenSibling(key, ext); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenSibling of an absent sibling: %v, want fs.ErrNotExist", err)
	}
	if err := s.PutSibling(key, ext, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.Keys(); len(keys) != 0 || s.Len() != 0 || s.Has(key) {
		t.Fatalf("a lone sibling is visible as an entry: Keys=%v Len=%d Has=%v", keys, s.Len(), s.Has(key))
	}
	if err := s.Put(key, entry{Name: "lun1"}); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.Keys(); len(keys) != 1 || keys[0] != key || s.Len() != 1 {
		t.Fatalf("Keys = %v (Len %d), want the one entry", keys, s.Len())
	}
	f, err := s.OpenSibling(key, ext)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || string(got) != body {
		t.Fatalf("sibling after its entry's Put = %q (%v), want %q", got, err, body)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSibling(key, ext); !errors.Is(err, fs.ErrNotExist) || s.Has(key) {
		t.Fatalf("Delete left the sibling or the entry behind (open: %v, Has=%v)", err, s.Has(key))
	}
}

func TestSiblingRejectsBadExtension(t *testing.T) {
	s, _ := Open(t.TempDir())
	key, _ := HashJSON("ext")
	for _, ext := range []string{"", ".", ".json", ".x.json", "ndjson", "./x", ".a/b", `.a\b`, ".." + string(filepath.Separator) + "x"} {
		if err := s.PutSibling(key, ext, func(io.Writer) error { return nil }); err == nil {
			t.Errorf("PutSibling accepted extension %q", ext)
		}
		if f, err := s.OpenSibling(key, ext); err == nil {
			f.Close()
			t.Errorf("OpenSibling accepted extension %q", ext)
		}
	}
	if err := s.PutSibling("../../etc/passwd", ".x", func(io.Writer) error { return nil }); err == nil {
		t.Error("PutSibling accepted a malformed key")
	}
}

// TestFailedWriteLeavesNothing: a writer that fails — after bytes reached the
// temp file, or short of the buffer — and a value that does not encode leave
// neither a temp file nor the file they were writing.
func TestFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key, _ := HashJSON("failed")
	for _, tc := range []struct {
		written int
		err     error
	}{{100 << 10, errors.New("boom")}, {10, io.ErrShortWrite}} {
		err := s.PutSibling(key, ".x", func(w io.Writer) error {
			io.WriteString(w, strings.Repeat("x", tc.written))
			return tc.err
		})
		if !errors.Is(err, tc.err) {
			t.Fatalf("PutSibling = %v, want the writer's %v", err, tc.err)
		}
	}
	if _, err := s.OpenSibling(key, ".x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed write left a sibling: %v", err)
	}
	if err := s.Put(key, func() {}); err == nil {
		t.Fatal("Put encoded a func")
	}
	if debris := tempDebris(t, dir); len(debris) != 0 || s.Has(key) {
		t.Fatalf("failed writes left debris %v (Has=%v)", debris, s.Has(key))
	}
}

// blob is a 1 MB entry in the shape of the store's largest: base64 of a
// checkpoint-sized byte slice beside a few scalars.
type blob struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	Blob []byte `json:"blob"`
}

func bigBlob() *blob {
	b := &blob{Key: "k", Kind: "snapshot", Blob: make([]byte, 768<<10)}
	for i := range b.Blob {
		b.Blob[i] = byte(i * 7)
	}
	return b
}

// TestPutIsCompactAndEquivalent: the file Put writes is the document
// MarshalIndent used to write with the insignificant whitespace gone, and
// decodes to the same value.
func TestPutIsCompactAndEquivalent(t *testing.T) {
	s, _ := Open(t.TempDir())
	key, _ := HashJSON("compact")
	type nested struct {
		Name    string             `json:"name"`
		Spec    json.RawMessage    `json:"spec"`
		Series  []entry            `json:"series"`
		Custom  map[string]float64 `json:"custom"`
		Escaped string             `json:"escaped"`
	}
	want := nested{
		Name:    "lun1",
		Spec:    json.RawMessage(`{"type":"replay","scale":0.01}`),
		Series:  []entry{{"a", 1.5}, {"b", 1e-9}, {"c", 3e21}},
		Custom:  map[string]float64{"z": 1, "a": 2},
		Escaped: "<tag> & \u2028 \"quoted\"\n",
	}
	if err := s.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(s.Dir(), key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(&want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, file); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, indented); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Put wrote\n%s\nMarshalIndent compacts to\n%s", a.Bytes(), b.Bytes())
	}
	if len(file) != a.Len()+1 || file[len(file)-1] != '\n' {
		t.Fatalf("entry file is %d bytes, its compact form %d: want compact JSON and one newline", len(file), a.Len())
	}
	var got nested
	if ok, err := s.Get(key, &got); !ok || err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v (ok=%v err=%v), want %+v", got, ok, err, want)
	}
}

// TestPutTransientAllocation: Put streams the one encoding into the temp
// file; beyond encoding/json's own pooled buffer, a 1 MB entry costs it the
// write buffer and small change, not further copies of the document. (The
// count is the allocator's, so it means nothing under the race detector.)
func TestPutTransientAllocation(t *testing.T) {
	bi, _ := debug.ReadBuildInfo()
	for _, st := range bi.Settings {
		if st.Key == "-race" && st.Value == "true" {
			t.Skip("allocation sizes under -race are the detector's")
		}
	}
	s, _ := Open(t.TempDir())
	v := bigBlob()
	key, _ := HashJSON("alloc")
	// encoding/json pools its buffer per P and the collector empties the pool:
	// keep the collector out, and take the cheapest of enough Puts that one
	// must find the buffer an earlier one returned.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for i := 0; i <= runtime.GOMAXPROCS(0); i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Put(key, v); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 256<<10 {
		t.Fatalf("Put of a 1 MB entry allocated %d KiB, want at most 256", least>>10)
	}
	if fi, err := os.Stat(filepath.Join(s.Dir(), key[:2], key+".json")); err != nil || fi.Size() < 1<<20 {
		t.Fatalf("the entry is not 1 MB: %v %v", fi, err)
	}
}

// blocking encodes as 1 MB of JSON, but only once released; started reports
// that its Put has reached the encode, temp file open.
type blocking struct {
	started chan<- struct{}
	release <-chan struct{}
}

func (b blocking) MarshalJSON() ([]byte, error) {
	b.started <- struct{}{}
	<-b.release
	return json.Marshal(strings.Repeat("x", 1<<20))
}

// TestConcurrentPutsOverlap: the store-wide lock covers a Put's rename only,
// so two Puts to different keys encode and write at the same time — both
// temp files exist before either is renamed.
func TestConcurrentPutsOverlap(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	var keys []string
	for _, name := range []string{"first", "second"} {
		key, _ := HashJSON(name)
		keys = append(keys, key)
		go func() { errs <- s.Put(key, blocking{started, release}) }()
	}
	for range keys {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("the second Put did not start while the first was mid-write: Put holds the lock across its write")
		}
	}
	if debris := tempDebris(t, dir); len(debris) != 2 {
		t.Fatalf("temp files while both Puts are mid-encode: %v, want two", debris)
	}
	for _, key := range keys {
		if s.Has(key) {
			t.Fatalf("entry %s is visible before its Put finished", key)
		}
	}
	close(release)
	for range keys {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		var got string
		if ok, err := s.Get(key, &got); !ok || err != nil || len(got) != 1<<20 {
			t.Fatalf("Get(%s): ok=%v err=%v len=%d", key, ok, err, len(got))
		}
	}
	if debris := tempDebris(t, dir); len(debris) != 0 {
		t.Fatalf("temp debris left behind: %v", debris)
	}
}

// TestBytesWrittenCountsCommittedFiles: BytesWritten is the size of every
// entry and sibling committed since Open — not of writes that failed, not of
// what an earlier process left in the directory.
func TestBytesWrittenCountsCommittedFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key, _ := HashJSON("counted")
	if err := s.Put(key, bigBlob()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSibling(key, ".x", func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Repeat("x", 100<<10))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.PutSibling(key, ".y", func(w io.Writer) error {
		io.WriteString(w, strings.Repeat("y", 100<<10))
		return errors.New("boom")
	})
	entry, err := os.Stat(filepath.Join(dir, key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.BytesWritten(), entry.Size()+100<<10; got != want {
		t.Fatalf("BytesWritten = %d, want the entry's %d + the sibling's %d", got, entry.Size(), 100<<10)
	}
	if again, _ := Open(dir); again.BytesWritten() != 0 {
		t.Fatalf("a reopened store starts at %d bytes written", again.BytesWritten())
	}
}
