package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	for _, version := range []byte{1, 3} { // the one retired and the next
		skewed := append([]byte(nil), blob...)
		skewed[4] = version
		f.Add(skewed)
	}
	f.Add([]byte("AXSN"))
	f.Add([]byte{})
	for _, b := range outOfRangeBlobs(f) {
		f.Add(b.blob)
	}
	// A body several windows long, so columns arrive split across them, and
	// a column count the header's length allows but the payload present could
	// never expand to.
	wideConf := smallConf()
	wideConf.BlocksPerPlane *= 4
	wide, err := NewRunner(KindMRSM, wideConf)
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

// bodyOf returns the body the payload of blob spells, as far as the decoder
// reads it, and the decoder's verdict on the container.
func bodyOf(blob []byte) ([]byte, error) {
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		return nil, err
	}
	var body []byte
	dec.Blocks(int(snapshot.BodyLen(blob)), 1, func(src []byte, _ int) error {
		body = append(body, src...)
		return nil
	})
	return body, dec.Finish()
}

// reseal returns blob with mutate applied to its body, sealed again by an
// Encoder — the header's length and SHA-256 recomputed, the body in raw
// segments of a packed payload: a container that passes every container
// check, so only the state decoders stand between the planted defect and a
// runner.
func reseal(tb testing.TB, blob []byte, mutate func(body []byte)) []byte {
	tb.Helper()
	body, err := bodyOf(blob)
	if err != nil {
		tb.Fatal(err)
	}
	mutate(body)
	enc := snapshot.NewEncoder()
	for _, b := range body {
		enc.U8(b)
	}
	out, err := enc.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return out
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

// outOfRangeBlobs plants, in stored version-3 checkpoints, what the columns
// can still say and no table may hold: a PPN or a tag key outside the device,
// a tag on a dead page, an MRSM location below unmapped, a presence byte
// that is not a boolean. (Version 1 could also say a PPN, a tag
// key or an MRSM entry beyond 32 bits, and refused them; the 32-bit columns
// cannot.) Each blob is otherwise a checkpoint that opens.
func outOfRangeBlobs(tb testing.TB) []namedBlob {
	tb.Helper()
	stored := func(name string) []byte {
		blob, err := os.ReadFile("testdata/snapshot-v3/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		return blob
	}
	// plant reseals a stored checkpoint around one defect.
	plant := func(blob []byte, defect func(c *bodyCursor)) []byte {
		return reseal(tb, blob, func(body []byte) { defect(&bodyCursor{tb: tb, body: body}) })
	}
	ftlBlob, mrsmBlob := stored("ftl.axsn"), stored("mrsm.axsn")
	return []namedBlob{
		// What fits a column but not the device is the audit's to refuse.
		{"pmt-ppn", nil, plant(ftlBlob, func(c *bodyCursor) {
			_, first, _ := c.tag("pmt").col(4)
			c.put32(first, -2) // neither a page nor NilPPN
		})},
		{"pmt-ppn-past-device", nil, plant(ftlBlob, func(c *bodyCursor) {
			_, first, _ := c.tag("pmt").col(4)
			c.put32(first, 1<<30)
		})},
		{"flash-key", nil, plant(ftlBlob, func(c *bodyCursor) {
			f := c.flashPage(1) // a valid page, owned by an LPN past the device
			c.put32(f.keys+4*f.page, 1<<30)
		})},
		{"invalid-page-tag", snapshot.ErrCorrupt, plant(ftlBlob, func(c *bodyCursor) {
			f := c.flashPage(2) // an invalidated page
			c.body[f.metas+f.page] |= 1 << 2
		})},
		{"aux-presence", snapshot.ErrCorrupt, plant(ftlBlob, func(c *bodyCursor) {
			c.body[c.flashPage(1).auxPresent] = 0x80
		})},
		{"mrsm-subloc", snapshot.ErrCorrupt, plant(mrsmBlob, func(c *bodyCursor) {
			c.tag("pmt").col(4)
			c.optCol(4)
			_, first, _ := c.col(4)
			c.put32(first, math.MinInt32) // the first step: a location far past the slots
		})},
	}
}

type namedBlob struct {
	name string
	want error // nil: any error will do
	blob []byte
}

// A checkpoint whose columns hold what the tables or the device cannot —
// written by a buggy or hostile writer, since the container itself is intact
// — is refused by both openers instead of being installed, or indexing past
// a table in the audit.
func TestRestoreRejectsOutOfRangeColumns(t *testing.T) {
	stored, err := os.ReadFile("testdata/snapshot-v3/ftl.axsn")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Restore(reseal(t, stored, func([]byte) {})); err != nil || !bytes.Equal(mustSnapshot(t, r), stored) {
		t.Fatalf("resealing an untouched body does not reproduce the stored checkpoint: %v", err)
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
