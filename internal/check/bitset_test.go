package check

import "testing"

// TestSetWrittenRun checks the word-at-a-time run setter against the
// bit-at-a-time one at every word-boundary shape, on a bitset whose last
// word is partial.
func TestSetWrittenRun(t *testing.T) {
	const sectors = 3*64 + 40
	words := (sectors + 63) / 64
	for _, off := range []int64{0, 1, 63, 64, 65, 127} {
		for _, n := range []int64{0, 1, 2, 63, 64, 65, 128, 129} {
			got := &Checker{logicalSectors: sectors, written: make([]uint64, words)}
			want := &Checker{logicalSectors: sectors, written: make([]uint64, words)}
			// A neighbour on each side must survive the run being set.
			for _, c := range []*Checker{got, want} {
				c.setWritten(sectors - 1)
				if off > 0 {
					c.setWritten(off - 1)
				}
			}
			got.setWrittenRun(off, off+n)
			for sec := off; sec < min(off+n, sectors); sec++ {
				want.setWritten(sec)
			}
			for w := range want.written {
				if got.written[w] != want.written[w] {
					t.Errorf("run [%d,%d): word %d is %#x, want %#x", off, off+n, w, got.written[w], want.written[w])
				}
			}
		}
	}
}

// TestNextAndCountWritten checks the word-at-a-time scans OnRead runs against
// the bit-at-a-time answer, for every range of a bitset with a partial last
// word and a pattern that has empty words, full words and lone bits.
func TestNextAndCountWritten(t *testing.T) {
	const sectors = 4*64 + 40
	c := &Checker{logicalSectors: sectors, written: make([]uint64, (sectors+63)/64)}
	c.setWrittenRun(64, 128) // a full word
	for _, sec := range []int64{0, 5, 63, 130, 191, 256, sectors - 1} {
		c.setWritten(sec)
	}
	for start := int64(0); start <= sectors; start++ {
		for end := start; end <= sectors; end++ {
			next, count := end, int64(0)
			for sec := end - 1; sec >= start; sec-- {
				if c.isWritten(sec) {
					next = sec
					count++
				}
			}
			if got := c.nextWritten(start, end); got != next {
				t.Fatalf("nextWritten(%d, %d) = %d, want %d", start, end, got, next)
			}
			if got := c.countWritten(start, end); got != count {
				t.Fatalf("countWritten(%d, %d) = %d, want %d", start, end, got, count)
			}
		}
	}
}

// TestSetWrittenRunClipsToDevice: a scheme's last page may reach past
// LogicalSectors (and a corrupt area below 0); only the part on the device is
// marked, and nothing is written outside the bitset.
func TestSetWrittenRunClipsToDevice(t *testing.T) {
	const sectors = 64 + 24 // the last 16-sector page ends 8 sectors past the device
	c := &Checker{logicalSectors: sectors, written: make([]uint64, 2)}
	c.setWrittenRun(80, 96)
	c.setWrittenRun(-5, 3)
	c.setWrittenRun(sectors, sectors+16)
	c.setWrittenRun(200, 100)
	for sec := int64(0); sec < 128; sec++ {
		want := sec < 3 || sec >= 80 && sec < sectors
		if got := c.isWritten(sec); got != want {
			t.Errorf("sector %d written = %v, want %v", sec, got, want)
		}
	}
}
