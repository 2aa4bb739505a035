package check

// Written exposes the shadow bitset to the external tests.
func (c *Checker) Written() []uint64 { return c.written }

// setWritten and isWritten are the bit-at-a-time references the word-at-a-time
// bitset helpers are tested against.
func (c *Checker) setWritten(sec int64) { c.written[sec>>6] |= 1 << uint(sec&63) }
func (c *Checker) isWritten(sec int64) bool {
	return c.written[sec>>6]&(1<<uint(sec&63)) != 0
}
