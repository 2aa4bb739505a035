package sim

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"across/internal/snapshot"
)

// bodyCursor walks a version-1 snapshot body the way the decoders do, so a
// test can plant a defect at a named place.
type bodyCursor struct {
	tb   testing.TB
	body []byte
	off  int
}

// tag moves just past the next occurrence of a section tag.
func (c *bodyCursor) tag(name string) *bodyCursor {
	c.off += sectionAt(c.tb, c.body[c.off:], name)
	return c
}

// col steps over a column of elem-byte elements and returns the offset of its
// count, of its first element, and its length.
func (c *bodyCursor) col(elem int) (count, first, n int) {
	count = c.off
	first, c.off, n = slabAt(c.body, c.off, elem)
	return count, first, n
}

func (c *bodyCursor) skip(n int) *bodyCursor { c.off += n; return c }

func (c *bodyCursor) put64(off int, v int64) { binary.LittleEndian.PutUint64(c.body[off:], uint64(v)) }
func (c *bodyCursor) put32(off int, v int32) { binary.LittleEndian.PutUint32(c.body[off:], uint32(v)) }

// TestRestoreRefusesEveryPlantedDefect reaches, one at a time, the size,
// range, tag, duplicate and accounting refusals of every RestoreState and of
// Restore's own header — in stored version-1 checkpoints resealed with a
// correct digest, so only the decoders stand between the defect and a
// runner. The streamed codec checks each element as its column arrives
// instead of after all columns are in view; this is the list showing that no
// check went missing on the way. (Map-store and PMT refusals are also reached
// directly in the ftl and mapping packages' tests, container and trailing-
// byte refusals in the snapshot package's.)
func TestRestoreRefusesEveryPlantedDefect(t *testing.T) {
	const lruShape = 8 + 1 + 8 // capacity, dense, key space: what precedes an LRU's size
	// simScalars returns the offset of cachePages, which warmed and
	// warmupWrites follow, behind the kind and configuration strings.
	simScalars := func(c *bodyCursor) int {
		c.tag("sim")
		for range 2 {
			c.skip(4 + int(binary.LittleEndian.Uint32(c.body[c.off:])))
		}
		return c.off
	}
	flashPage := func(c *bodyCursor, state byte) (page, kinds, keys, aux int) {
		c.tag("flash")
		_, states, n := c.col(1)
		_, kinds, _ = c.col(1)
		_, keys, _ = c.col(8)
		_, aux, _ = c.col(8)
		for p := 0; p < n; p++ {
			if c.body[states+p] == state {
				return p, kinds, keys, aux
			}
		}
		c.tb.Fatalf("stored checkpoint has no page in state %d", state)
		return
	}
	blockCols := func(c *bodyCursor) (writePtr, validCount, eraseCount int) {
		flashPage(c, 1)
		_, writePtr, _ = c.col(4)
		_, validCount, _ = c.col(4)
		_, eraseCount, _ = c.col(8)
		return
	}
	mrsmCols := func(c *bodyCursor) *bodyCursor {
		c.tag("pmt")
		c.col(8)
		c.col(4)
		return c
	}
	for _, tc := range []struct {
		name, fixture, want string
		plant               func(c *bodyCursor)
	}{
		// sim: the header fields Restore itself checks.
		{"negative warm-up writes", "ftl.axsn", "negative warm-up writes", func(c *bodyCursor) { c.put64(simScalars(c)+8+1, -1) }},
		{"host cache larger than the device", "ftl.axsn", "host cache", func(c *bodyCursor) { c.put64(simScalars(c), 1<<40) }},
		{"unknown scheme", "ftl.axsn", "scheme", func(c *bodyCursor) { c.tag("sim"); c.body[c.off+4] = 'X' }},
		// flash
		{"flash page column of another size", "ftl.axsn", "receiver holds", func(c *bodyCursor) {
			count, _, n := c.tag("flash").col(1)
			c.put64(count, int64(n-1))
		}},
		{"flash state 3", "ftl.axsn", "invalid state", func(c *bodyCursor) {
			_, states, _ := c.tag("flash").col(1)
			c.body[states+5] = 3
		}},
		{"dead page with a key", "ftl.axsn", "carries tag key", func(c *bodyCursor) {
			p, _, keys, _ := flashPage(c, 2)
			c.put64(keys+8*p, 7)
		}},
		{"dead page with an aux", "ftl.axsn", "carries tag aux", func(c *bodyCursor) {
			p, _, _, aux := flashPage(c, 0)
			c.put64(aux+8*p, 7)
		}},
		{"valid page with kind 63", "ftl.axsn", "tag kind", func(c *bodyCursor) {
			p, kinds, _, _ := flashPage(c, 1)
			c.body[kinds+p] = 63
		}},
		{"write pointer past the block", "ftl.axsn", "write pointer", func(c *bodyCursor) {
			wp, _, _ := blockCols(c)
			c.put32(wp, 1<<20)
		}},
		{"negative write pointer", "ftl.axsn", "write pointer", func(c *bodyCursor) {
			wp, _, _ := blockCols(c)
			c.put32(wp, -1)
		}},
		{"valid count above the write pointer", "ftl.axsn", "valid count", func(c *bodyCursor) {
			_, vc, _ := blockCols(c)
			c.put32(vc, 1<<20)
		}},
		{"negative erase count", "ftl.axsn", "negative erase count", func(c *bodyCursor) {
			_, _, ec := blockCols(c)
			c.put64(ec, -1)
		}},
		{"block column of another size", "ftl.axsn", "receiver holds", func(c *bodyCursor) {
			flashPage(c, 1)
			count, _, n := c.col(4)
			c.put64(count, int64(n-1))
		}},
		// allocator
		{"round-robin cursor out of range", "ftl.axsn", "round-robin", func(c *bodyCursor) { c.tag("alloc"); c.put64(c.off, 1<<20) }},
		{"plane count", "ftl.axsn", "planes", func(c *bodyCursor) { c.tag("alloc"); c.put64(c.off+8, 99) }},
		{"free block of another plane", "ftl.axsn", "free block", func(c *bodyCursor) {
			_, first, n := c.tag("alloc").skip(16).col(8)
			if n == 0 {
				c.tb.Fatal("plane 0 has no free block in the stored checkpoint")
			}
			c.put64(first, 1<<30)
		}},
		{"active block of another plane", "ftl.axsn", "active block", func(c *bodyCursor) {
			c.tag("alloc").skip(16).col(8)
			c.put64(c.off, 1<<30)
		}},
		{"free pages past the plane", "ftl.axsn", "free pages", func(c *bodyCursor) {
			c.tag("alloc").skip(16).col(8)
			c.put64(c.off+16, 1<<40)
		}},
		// PMT
		{"PMT AIdx column of another size", "ftl.axsn", "receiver holds", func(c *bodyCursor) {
			c.tag("pmt").col(8)
			count, _, n := c.col(4)
			c.put64(count, int64(n-1))
		}},
		// MRSM
		{"MRSM census entry out of range", "mrsm.axsn", "census", func(c *bodyCursor) {
			mrsmCols(c).col(8)
			_, first, _ := c.col(8)
			c.put64(first, 1<<40)
		}},
		{"MRSM page with 99 live slots", "mrsm.axsn", "live slots", func(c *bodyCursor) {
			mrsmCols(c).col(8)
			c.col(8)
			_, first, _ := c.col(4)
			c.put32(first, 99)
		}},
		{"MRSM dirty-count column of another size", "mrsm.axsn", "receiver holds", func(c *bodyCursor) {
			mrsmCols(c).col(8)
			c.col(8)
			c.col(4)
			count, _, n := c.col(4)
			c.put64(count, int64(n-1))
		}},
		// CMT and LRU (MRSM's cached mapping table)
		{"CMT grouping factor", "mrsm.axsn", "entries/page", func(c *bodyCursor) { c.tag("cmt"); c.put64(c.off, 3) }},
		{"LRU capacity", "mrsm.axsn", "shape", func(c *bodyCursor) { c.tag("lru"); c.put64(c.off, 1<<20) }},
		{"LRU size above its capacity", "mrsm.axsn", "LRU size", func(c *bodyCursor) { c.tag("lru"); c.put64(c.off+lruShape, 1<<40) }},
		{"LRU resident twice", "mrsm.axsn", "duplicated", func(c *bodyCursor) {
			c.tag("lru").skip(lruShape)
			if size := binary.LittleEndian.Uint64(c.body[c.off:]); size < 2 {
				c.tb.Fatalf("stored LRU holds %d residents", size)
			}
			copy(c.body[c.off+8+9:][:8], c.body[c.off+8:][:8]) // the second resident's key := the first's
		}},
		// AMT (Across-FTL)
		{"AMT column of another size", "across.axsn", "receiver holds", func(c *bodyCursor) {
			c.tag("amt").col(8)
			count, _, n := c.col(4)
			c.put64(count, int64(n+1))
		}},
		{"AMT in-use byte 2", "across.axsn", "in-use byte", func(c *bodyCursor) {
			c.tag("amt").col(8)
			c.col(4)
			c.col(4)
			c.col(8)
			_, first, n := c.col(1)
			if n == 0 {
				c.tb.Fatal("stored AMT is empty")
			}
			c.body[first] = 2
		}},
		{"AMT live count", "across.axsn", "accounting", func(c *bodyCursor) {
			c.tag("amt").col(8)
			c.col(4)
			c.col(4)
			c.col(8)
			c.col(1)
			c.col(4)
			c.put64(c.off, int64(binary.LittleEndian.Uint64(c.body[c.off:]))+1)
		}},
		{"Across-FTL cache budget", "across.axsn", "AMTCachePages", func(c *bodyCursor) {
			c.tag("mapstore").col(8)
			c.col(8)
			c.put64(c.off, 12345)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stored, err := os.ReadFile("testdata/snapshot-v1/" + tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			blob := reseal(t, stored, func(body []byte) { tc.plant(&bodyCursor{tb: t, body: body}) })
			for _, o := range openers {
				err := o.open(blob)
				if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want ErrCorrupt mentioning %q", o.name, err, tc.want)
				}
			}
		})
	}
}
