package service

import (
	"sync"

	"across/internal/sim"
)

// checkpointBudget bounds the checkpoint templates a server keeps open
// between jobs: room for every scheme of sixteen Experiment-size device
// configurations (2.4 MB each, 10.6 MB for MRSM), or one Table 1 device. A
// checkpoint larger than the whole budget is forked and dropped.
const checkpointBudget = 256 << 20

// checkpointCache holds opened (verified and audited) aging checkpoints by
// AgingKey, so a sweep's jobs fork from memory instead of re-reading and
// re-verifying the same store entry. The key hashes everything the aged
// state depends on, so an entry cannot go stale. Eviction is
// least-recently-forked first, by sim.Checkpoint.Bytes — what an entry
// retains, and what each fork of it copies — against a fixed budget.
type checkpointCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	clock   uint64 // ticks once per get/put; orders entries by last fork
	entries map[string]*cachedCheckpoint

	hits, evictions int64 // /metrics counters
}

type cachedCheckpoint struct {
	cp       *sim.Checkpoint
	lastFork uint64
}

func newCheckpointCache(budget int64) *checkpointCache {
	return &checkpointCache{budget: budget, entries: make(map[string]*cachedCheckpoint)}
}

// stats returns the /metrics series: forks served from the cache, entries
// evicted, bytes held.
func (c *checkpointCache) stats() (hits, evictions, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.evictions, c.bytes
}

// get returns the checkpoint cached under key, which the caller is about to
// fork, or nil.
func (c *checkpointCache) get(key string) *sim.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	c.hits++
	c.clock++
	e.lastFork = c.clock
	return e.cp
}

// put caches a checkpoint the caller is about to fork, evicting the
// least-recently-forked entries until the budget holds.
func (c *checkpointCache) put(key string, cp *sim.Checkpoint) {
	size := cp.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget || c.entries[key] != nil {
		return
	}
	for c.bytes+size > c.budget {
		var oldest string
		for k, e := range c.entries {
			if oldest == "" || e.lastFork < c.entries[oldest].lastFork {
				oldest = k
			}
		}
		c.bytes -= c.entries[oldest].cp.Bytes()
		delete(c.entries, oldest)
		c.evictions++
	}
	c.clock++
	c.entries[key] = &cachedCheckpoint{cp: cp, lastFork: c.clock}
	c.bytes += size
}
