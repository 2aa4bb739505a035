package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"across/internal/snapshot"
)

// bodyCursor walks a version-3 snapshot body the way the decoders do, so a
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

// optCol steps over a presence byte and, when it is set, the column of
// elem-byte elements behind it; first is -1 for an absent column.
func (c *bodyCursor) optCol(elem int) (presence, count, first int) {
	presence, first = c.off, -1
	if c.skip(1); c.body[presence] == 1 {
		count, first, _ = c.col(elem)
	}
	return presence, count, first
}

// fill overwrites the column of elem-byte elements whose first is at first
// with the byte b.
func (c *bodyCursor) fill(first, elem int, b byte) {
	n := int(binary.LittleEndian.Uint64(c.body[first-8:]))
	for i := range c.body[first : first+n*elem] {
		c.body[first+i] = b
	}
}

func (c *bodyCursor) put64(off int, v int64) { binary.LittleEndian.PutUint64(c.body[off:], uint64(v)) }

// zigzag folds a step of MRSM's location column as the writer does.
func zigzag(d int32) int32                   { return d<<1 ^ d>>31 }
func (c *bodyCursor) put32(off int, v int32) { binary.LittleEndian.PutUint32(c.body[off:], uint32(v)) }

// flashCols is where the page columns of a body's flash section lie: a page
// in the state asked for, the first elements of the meta and key columns,
// aux's presence byte and its first element (-1 when the column is absent).
type flashCols struct{ page, metas, keys, auxPresent, aux int }

// flashPage walks the flash section's page columns, leaving the cursor at the
// block columns, and finds a page in the given state.
func (c *bodyCursor) flashPage(state byte) (f flashCols) {
	c.tag("flash")
	var n int
	_, f.metas, n = c.col(1)
	_, f.keys, _ = c.col(4)
	f.auxPresent, _, f.aux = c.optCol(8)
	f.page = bytes.IndexFunc(c.body[f.metas:f.metas+n], func(m rune) bool { return byte(m)&3 == state })
	if f.page < 0 {
		c.tb.Fatalf("stored checkpoint has no page in state %d", state)
	}
	return f
}

// TestRestoreRefusesEveryPlantedDefect reaches, one at a time, the size,
// range, tag, presence, duplicate and accounting refusals of every
// RestoreState and of Restore's own header — in stored version-3 checkpoints
// resealed with a correct digest, so only the decoders stand between the
// defect and a runner. The streamed codec checks each element as its column
// arrives instead of after all columns are in view; this is the list showing
// that no check went missing on the way, nor when the columns took the
// tables' widths: what version 1 refused and is not here — a PPN, a tag key
// or an MRSM entry beyond 32 bits — the 32-bit columns have no bytes to say.
// MRSM's census is rebuilt from its locations since version 3, so what a
// stored census could get wrong is now a location that names a slot twice.
// (Map-store and PMT refusals are also reached directly in the ftl and
// mapping packages' tests, container and trailing-byte refusals in the
// snapshot package's.)
func TestRestoreRefusesEveryPlantedDefect(t *testing.T) {
	const lruShape = 8 + 8 // capacity, key space: what precedes an LRU's size
	// simScalars returns the offset of cachePages, which warmed and
	// warmupWrites follow, behind the kind and configuration strings.
	simScalars := func(c *bodyCursor) int {
		c.tag("sim")
		for range 2 {
			c.skip(4 + int(binary.LittleEndian.Uint32(c.body[c.off:])))
		}
		return c.off
	}
	blockCols := func(c *bodyCursor) (writePtr, validCount, eraseCount int) {
		c.flashPage(1)
		_, writePtr, _ = c.col(4)
		_, validCount, _ = c.col(4)
		_, eraseCount, _ = c.col(8)
		return
	}
	// mrsmCols leaves the cursor behind the (empty) PMT, at MRSM's own
	// columns: location steps, dirty counts.
	mrsmCols := func(c *bodyCursor) *bodyCursor {
		c.tag("pmt").col(4)
		c.optCol(4)
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
			_, metas, _ := c.tag("flash").col(1)
			c.body[metas+5] = 3
		}},
		{"dead page with kind bits", "ftl.axsn", "carries tag kind", func(c *bodyCursor) {
			f := c.flashPage(2)
			c.body[f.metas+f.page] |= 1 << 2
		}},
		{"dead page with a key", "ftl.axsn", "carries tag key", func(c *bodyCursor) {
			f := c.flashPage(2)
			c.put32(f.keys+4*f.page, 7)
		}},
		{"dead page with an aux", "across.axsn", "carries tag aux", func(c *bodyCursor) {
			f := c.flashPage(0)
			c.put64(f.aux+8*f.page, 7)
		}},
		{"valid page with kind 63", "ftl.axsn", "tag kind", func(c *bodyCursor) {
			f := c.flashPage(1)
			c.body[f.metas+f.page] = 1 | 63<<2
		}},
		{"aux presence byte 2", "ftl.axsn", "bad bool byte", func(c *bodyCursor) {
			c.body[c.flashPage(1).auxPresent] = 2
		}},
		{"aux column present and all zero", "across.axsn", "holds nothing", func(c *bodyCursor) {
			c.fill(c.flashPage(1).aux, 8, 0)
		}},
		{"aux column where none was written", "ftl.axsn", "receiver holds", func(c *bodyCursor) {
			c.body[c.flashPage(1).auxPresent] = 1 // the block columns are read as an aux column of another size
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
			c.flashPage(1)
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
		{"PMT PPN column of another size", "ftl.axsn", "receiver holds", func(c *bodyCursor) {
			count, _, n := c.tag("pmt").col(4)
			c.put64(count, int64(n-1))
		}},
		{"PMT AIdx column of another size", "across.axsn", "receiver holds", func(c *bodyCursor) {
			c.tag("pmt").col(4)
			_, count, _ := c.optCol(4)
			c.put64(count, 3)
		}},
		{"PMT AIdx presence byte 2", "ftl.axsn", "bad bool byte", func(c *bodyCursor) {
			c.tag("pmt").col(4)
			c.body[c.off] = 2
		}},
		{"PMT AIdx column present and all NoAIdx", "across.axsn", "holds nothing", func(c *bodyCursor) {
			c.tag("pmt").col(4)
			_, _, first := c.optCol(4)
			c.fill(first, 4, 0xFF)
		}},
		// MRSM
		{"MRSM location out of range", "mrsm.axsn", "location", func(c *bodyCursor) {
			_, first, _ := mrsmCols(c).col(4)
			c.put32(first, zigzag(math.MaxInt32)) // the first step, from zero
		}},
		{"MRSM location below unmapped", "mrsm.axsn", "location", func(c *bodyCursor) {
			_, first, _ := mrsmCols(c).col(4)
			c.put32(first, zigzag(-2))
		}},
		{"MRSM slot named by two sub-pages", "mrsm.axsn", "location of sub-pages", func(c *bodyCursor) {
			_, first, n := mrsmCols(c).col(4)
			locs := make([]int32, n) // what the column's zigzag-folded steps spell
			for i, loc := 0, int32(0); i < n; i++ {
				step := binary.LittleEndian.Uint32(c.body[first+4*i:])
				loc += int32(step>>1) ^ -int32(step&1)
				locs[i] = loc
			}
			mapped := func(from int) int {
				for i := from; i < n; i++ {
					if locs[i] != -1 {
						return i
					}
				}
				c.tb.Fatal("stored MRSM checkpoint maps fewer than two sub-pages")
				return 0
			}
			a := mapped(0)
			locs[mapped(a+1)] = locs[a]
			for i, prev := 0, int32(0); i < n; i++ {
				c.put32(first+4*i, zigzag(locs[i]-prev))
				prev = locs[i]
			}
		}},
		{"MRSM dirty-count column of another size", "mrsm.axsn", "receiver holds", func(c *bodyCursor) {
			mrsmCols(c).col(4)
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
			stored, err := os.ReadFile("testdata/snapshot-v3/" + tc.fixture)
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
