package check

// Written exposes the shadow bitset to the external tests.
func (c *Checker) Written() []uint64 { return c.written }
