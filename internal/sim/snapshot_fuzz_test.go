package sim

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"testing"

	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// FuzzSnapshotDecode hardens Restore against arbitrary inputs: truncated,
// bit-flipped, version-skewed and wholly hostile blobs must come back as
// typed errors — never a panic, out-of-memory allocation, or a silently
// restored wrong state (the post-restore audit guards the last case for
// structurally valid bodies).
func FuzzSnapshotDecode(f *testing.F) {
	conf := ssdconf.Table1()
	conf.Channels = 2
	conf.ChipsPerChan = 1
	conf.DiesPerChip = 1
	conf.PlanesPerDie = 1
	conf.BlocksPerPlane = 16
	conf.PagesPerBlock = 8
	r, err := NewRunner(KindFTL, conf)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := r.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:headerLen(blob)])
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	skewed := append([]byte(nil), blob...)
	skewed[4] = 0xFE
	f.Add(skewed)
	f.Add([]byte("AXSN"))
	f.Add([]byte{})
	for _, b := range outOfRangeBlobs(f) {
		f.Add(b.blob)
	}
	// A body several windows long, so columns arrive split across them, and
	// a column count the header's length allows but the payload present could
	// never inflate to.
	wide, err := NewRunner(KindMRSM, smallConf())
	if err != nil {
		f.Fatal(err)
	}
	wideBlob, err := wide.Snapshot()
	if err != nil || snapshot.BodyLen(wideBlob) < 512<<10 {
		f.Fatalf("wide seed: body of %d bytes, %v", snapshot.BodyLen(wideBlob), err)
	}
	f.Add(wideBlob)
	claims := reseal(f, blob, func(body []byte) {
		binary.LittleEndian.PutUint64(body[sectionAt(f, body, "flash"):], 1<<30)
	})
	binary.LittleEndian.PutUint64(claims[12:], 1<<31)
	f.Add(claims)

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := Restore(data)
		if err != nil {
			return
		}
		if restored == nil {
			t.Fatal("Restore returned nil runner with nil error")
		}
		// An accepted blob must yield a usable runner: an empty replay
		// exercises the reset/collect paths without real traffic.
		if _, err := restored.ReplayQD(nil, 0); err != nil {
			t.Fatalf("restored runner cannot replay: %v", err)
		}
	})
}

// headerLen clips to the container header size without importing the
// snapshot package's internals (magic+version+flags+length+sha256).
func headerLen(blob []byte) int {
	const header = 4 + 4 + 4 + 8 + 32
	if len(blob) < header {
		return len(blob)
	}
	return header
}

// reseal returns blob with mutate applied to its inflated body and the
// header's length and SHA-256 recomputed: a container that passes every
// container check, so only the state decoders stand between the planted
// defect and a runner.
func reseal(tb testing.TB, blob []byte, mutate func(body []byte)) []byte {
	tb.Helper()
	header := headerLen(blob)
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob[header:])))
	if err != nil {
		tb.Fatal(err)
	}
	mutate(body)
	out := bytes.NewBuffer(bytes.Clone(blob[:12])) // magic, version, flags
	out.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(body))))
	sum := sha256.Sum256(body)
	out.Write(sum[:])
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	fw.Write(body)
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// sectionAt returns the offset just past a section tag in a snapshot body.
func sectionAt(tb testing.TB, body []byte, tag string) int {
	tb.Helper()
	marker := append(binary.LittleEndian.AppendUint32(nil, uint32(len(tag))), tag...)
	i := bytes.Index(body, marker)
	if i < 0 {
		tb.Fatalf("no %q section in the body", tag)
	}
	return i + len(marker)
}

// slabAt decodes the count prefix of a slab of elem-byte elements at off and
// returns the offset of its first element, the offset just past it, and the
// element count.
func slabAt(body []byte, off, elem int) (first, next, n int) {
	n = int(binary.LittleEndian.Uint64(body[off:]))
	return off + 8, off + 8 + n*elem, n
}

// outOfRangeBlobs plants, in stored version-1 checkpoints, the values the
// 32-bit columns cannot hold and the tag a dead page must not carry. Each
// blob is otherwise a checkpoint that opens.
func outOfRangeBlobs(tb testing.TB) []namedBlob {
	tb.Helper()
	stored := func(name string) []byte {
		blob, err := os.ReadFile("testdata/snapshot-v1/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return blob
	}
	put := func(body []byte, off int, v uint64) { binary.LittleEndian.PutUint64(body[off:], v) }
	// flashPage finds a page in the given state and returns its index and
	// the offsets of the kind and key columns.
	flashPage := func(body []byte, state byte) (page, kinds, keys int) {
		states, next, n := slabAt(body, sectionAt(tb, body, "flash"), 1)
		kinds, next, _ = slabAt(body, next, 1)
		keys, _, _ = slabAt(body, next, 8)
		page = bytes.IndexByte(body[states:states+n], state)
		if page < 0 {
			tb.Fatalf("stored checkpoint has no page in state %d", state)
		}
		return page, kinds, keys
	}
	ftlBlob, mrsmBlob := stored("ftl.axsn"), stored("mrsm.axsn")
	return []namedBlob{
		{"pmt-ppn", snapshot.ErrCorrupt, reseal(tb, ftlBlob, func(body []byte) {
			first, _, _ := slabAt(body, sectionAt(tb, body, "pmt"), 8)
			put(body, first, 1<<40)
		})},
		// Fits the column but not the device: the audit's to refuse.
		{"pmt-ppn-past-device", nil, reseal(tb, ftlBlob, func(body []byte) {
			first, _, _ := slabAt(body, sectionAt(tb, body, "pmt"), 8)
			put(body, first, 1<<30)
		})},
		{"flash-key", snapshot.ErrCorrupt, reseal(tb, ftlBlob, func(body []byte) {
			page, _, keys := flashPage(body, 1) // a valid page
			put(body, keys+8*page, 1<<40)
		})},
		{"invalid-page-tag", snapshot.ErrCorrupt, reseal(tb, ftlBlob, func(body []byte) {
			page, kinds, _ := flashPage(body, 2) // an invalidated page
			body[kinds+page] = 0
		})},
		{"mrsm-subloc", snapshot.ErrCorrupt, reseal(tb, mrsmBlob, func(body []byte) {
			_, next, _ := slabAt(body, sectionAt(tb, body, "pmt"), 8) // PPN column
			_, next, _ = slabAt(body, next, 4)                        // AIdx column
			first, _, _ := slabAt(body, next, 8)
			put(body, first, 1<<40)
		})},
	}
}

type namedBlob struct {
	name string
	want error // nil: any error will do
	blob []byte
}

// A checkpoint whose columns hold what the packed tables or the device
// cannot — written by a buggy or hostile writer, since the container itself
// is intact — is refused by both openers instead of being narrowed and
// installed, or indexing past a table in the audit.
func TestRestoreRejectsOutOfRangeColumns(t *testing.T) {
	stored, err := os.ReadFile("testdata/snapshot-v1/ftl.axsn")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reseal(t, stored, func([]byte) {}), stored) {
		t.Fatal("resealing an untouched body does not reproduce the stored checkpoint")
	}
	for _, b := range outOfRangeBlobs(t) {
		for _, o := range openers {
			t.Run(b.name+"/"+o.name, func(t *testing.T) {
				err := o.open(b.blob)
				if err == nil || (b.want != nil && !errors.Is(err, b.want)) {
					t.Fatalf("err = %v, want %v", err, b.want)
				}
			})
		}
	}
}
