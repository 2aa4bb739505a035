// Package store is a content-addressed on-disk result store for simulation
// jobs. Entries are keyed by a canonical hash of everything that determines
// a job's outcome — scheme, device configuration, workload profile, seed,
// scale, queue depth, aging — so two identical submissions share one entry,
// and completed results survive daemon restarts: a resubmitted job whose
// key is present is served from disk without touching the simulator.
//
// Layout: <dir>/<key[:2]>/<key>.json, one compact JSON document per entry,
// written atomically (temp file + rename) so a crash mid-write never leaves
// a half-entry that a later Get would misparse. Bulk data that a reader of
// the entry does not need lives beside it as a sibling file, <key><ext>,
// written the same way and before the entry: the entry's rename is the commit
// point.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HashJSON computes the canonical content address of v: the SHA-256 of its
// JSON encoding, hex-encoded. Go marshals struct fields in declaration
// order and map keys sorted, so the encoding — and therefore the key — is
// deterministic for a fixed Go type.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: hashing key material: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Store is a directory of content-addressed JSON entries. All methods are
// safe for concurrent use.
type Store struct {
	dir     string
	mu      sync.Mutex
	written atomic.Int64
}

// Open creates (if needed) and opens the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// BytesWritten counts the bytes of every entry and sibling this Store has
// committed since Open.
func (s *Store) BytesWritten() int64 { return s.written.Load() }

// path maps a key to its entry file, rejecting anything that is not a hex
// digest (keys are never user-controlled paths).
func (s *Store) path(key string) (string, error) {
	if len(key) < 8 || strings.ToLower(key) != key {
		return "", fmt.Errorf("store: malformed key %q", key)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", fmt.Errorf("store: malformed key %q: %w", key, err)
	}
	return filepath.Join(s.dir, key[:2], key+".json"), nil
}

// Put writes v as the entry for key, atomically replacing any previous
// entry. The document is compact JSON, encoded once and streamed into the
// temp file.
func (s *Store) Put(key string, v any) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	return s.writeFile(p, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

// siblingPath maps a key and an extension to the sibling file beside the
// key's entry. The extension must not collide with anything Keys counts.
func (s *Store) siblingPath(key, ext string) (string, error) {
	if len(ext) < 2 || ext[0] != '.' || strings.HasSuffix(ext, ".json") || strings.ContainsAny(ext, `/\`) {
		return "", fmt.Errorf("store: malformed sibling extension %q", ext)
	}
	p, err := s.path(key)
	return strings.TrimSuffix(p, ".json") + ext, err
}

// PutSibling writes what write produces as <key><ext> beside the key's
// entry, atomically like Put. A sibling is not an entry: Has, Keys and Len
// ignore it, Delete removes it, and it is meant to be written before the
// entry that makes it reachable.
func (s *Store) PutSibling(key, ext string, write func(io.Writer) error) error {
	p, err := s.siblingPath(key, ext)
	if err != nil {
		return err
	}
	return s.writeFile(p, write)
}

// OpenSibling opens the sibling <key><ext> for reading; the error of an
// absent one satisfies errors.Is(err, fs.ErrNotExist).
func (s *Store) OpenSibling(key, ext string) (*os.File, error) {
	p, err := s.siblingPath(key, ext)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// writeFile streams write into a temp file in p's directory and renames it
// over p. Only the rename takes the store lock (see quarantine), so
// concurrent writers encode and write in parallel.
func (s *Store) writeFile(p string, write func(io.Writer) error) error {
	dir, name := filepath.Split(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+name[:8]+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 32<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	var size int64
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent) // written front to back: the offset is the length
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.mu.Lock()
		err = os.Rename(tmp.Name(), p)
		s.mu.Unlock()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	s.written.Add(size)
	return nil
}

// Get unmarshals the entry for key into v. The bool reports whether a
// usable entry existed. An entry that does not decode is quarantined — moved
// aside as <key>.json.corrupt, a suffix Has and Keys ignore — and reported
// as a miss, so the work is redone instead of Has answering "stored" for an
// entry every Get fails on.
func (s *Store) Get(key string, v any) (bool, error) {
	p, err := s.path(key)
	if err != nil {
		return false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: reading entry %s: %w", key, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		if qerr := s.quarantine(p, b); qerr != nil {
			return false, fmt.Errorf("store: decoding entry %s: %w (quarantine failed: %v)", key, err, qerr)
		}
		return false, nil
	}
	return true, nil
}

// quarantine renames an undecodable entry file out of the key space. It
// runs under the Put lock and only if the file still holds the bytes that
// failed to decode, so an entry a concurrent Put just committed is never
// moved.
func (s *Store) quarantine(p string, bad []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := os.ReadFile(p)
	if err != nil || !bytes.Equal(cur, bad) {
		return nil
	}
	return os.Rename(p, p+".corrupt")
}

// Has reports whether an entry for key exists.
func (s *Store) Has(key string) bool {
	p, err := s.path(key)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Delete removes the entry for key, then its siblings (no error if absent).
func (s *Store) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	// The key is a hex digest, so the pattern has no metacharacters.
	files, _ := filepath.Glob(strings.TrimSuffix(p, ".json") + ".*")
	for _, f := range append([]string{p}, files...) {
		if strings.HasSuffix(f, ".corrupt") {
			continue
		}
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: deleting %s: %w", filepath.Base(f), err)
		}
	}
	return nil
}

// Keys lists every stored key, sorted.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".json") || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		keys = append(keys, strings.TrimSuffix(d.Name(), ".json"))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: listing keys: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Len counts stored entries (0 on an unreadable store).
func (s *Store) Len() int {
	keys, err := s.Keys()
	if err != nil {
		return 0
	}
	return len(keys)
}
