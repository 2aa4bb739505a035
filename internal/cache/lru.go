// Package cache provides the DRAM-side caching machinery of the FTL: a
// hand-rolled intrusive LRU and, on top of it, a cached mapping table (CMT)
// that models DFTL-style translation-page caching. MRSM runs its whole
// (oversized) mapping table through the CMT; Across-FTL runs only its AMT
// through it; the baseline FTL's table fits in DRAM and bypasses it. The
// miss/eviction accounting of this package is the mechanism behind the
// Map components of Fig 10 and the DRAM overheads of Fig 12.
package cache

// lruNode is an intrusive doubly-linked-list node keyed by an int64 id.
type lruNode struct {
	key        int64
	dirty      bool
	prev, next *lruNode
}

// LRU is a fixed-capacity least-recently-used set of int64 keys with a dirty
// bit per key, which a caller learns when the key leaves: from Touch's
// eviction or from Remove. The zero value is not usable; call NewLRU or
// NewLRUDense.
type LRU struct {
	capacity int
	table    map[int64]*lruNode // key -> node (nil in dense mode)
	dense    []*lruNode         // key-indexed table when the key space is known
	size     int
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	free     *lruNode // recycled nodes, chained through next
}

// NewLRU creates an LRU that holds at most capacity keys (capacity >= 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{capacity: capacity, table: make(map[int64]*lruNode, capacity)}
}

// NewLRUDense creates an LRU whose keys are known to lie in [0, keySpace):
// the residency table is a key-indexed slice, so lookups cost one index and
// the table never allocates under churn (a map's delete/insert cycle grows
// overflow buckets indefinitely). Translation-page caches qualify: their
// keys are dense page ids bounded by the mapping-table size.
func NewLRUDense(capacity int, keySpace int64) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{capacity: capacity, dense: make([]*lruNode, keySpace)}
}

func (l *LRU) lookup(key int64) *lruNode {
	if l.dense != nil {
		return l.dense[key]
	}
	return l.table[key]
}

func (l *LRU) install(key int64, n *lruNode) {
	if l.dense != nil {
		l.dense[key] = n
	} else {
		l.table[key] = n
	}
	l.size++
}

func (l *LRU) forget(key int64) {
	if l.dense != nil {
		l.dense[key] = nil
	} else {
		delete(l.table, key)
	}
	l.size--
}

// Len returns the number of resident keys.
func (l *LRU) Len() int { return l.size }

// Cap returns the capacity.
func (l *LRU) Cap() int { return l.capacity }

func (l *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU) pushFront(n *lruNode) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Touch makes key the most recently used, inserting it if absent, and ORs
// dirty into its dirty bit. It returns whether the key was already resident
// and, if an insertion evicted the LRU victim, the victim's key and dirty
// bit (evicted=false otherwise).
func (l *LRU) Touch(key int64, dirty bool) (hit bool, evictedKey int64, evictedDirty, evicted bool) {
	if n := l.lookup(key); n != nil {
		n.dirty = n.dirty || dirty
		if l.head != n {
			l.unlink(n)
			l.pushFront(n)
		}
		return true, 0, false, false
	}
	// Recycle the evicted victim (or a previously removed node) for the new
	// entry: once the cache is warm every miss evicts, so the steady-state
	// insert path allocates nothing.
	var n *lruNode
	if l.size >= l.capacity {
		victim := l.tail
		l.unlink(victim)
		l.forget(victim.key)
		evictedKey, evictedDirty, evicted = victim.key, victim.dirty, true
		n = victim
	} else if l.free != nil {
		n, l.free = l.free, l.free.next
		n.next = nil
	} else {
		n = &lruNode{}
	}
	n.key, n.dirty = key, dirty
	l.install(key, n)
	l.pushFront(n)
	return false, evictedKey, evictedDirty, evicted
}

// Remove drops a key (e.g. when its translation page is discarded) and
// reports whether it was resident and dirty.
func (l *LRU) Remove(key int64) (wasResident, wasDirty bool) {
	n := l.lookup(key)
	if n == nil {
		return false, false
	}
	l.unlink(n)
	l.forget(key)
	wasDirty = n.dirty
	n.key, n.dirty = 0, false
	n.next, l.free = l.free, n
	return true, wasDirty
}

// Clean clears the dirty bit of a resident key (after its contents were
// flushed out of band).
func (l *LRU) Clean(key int64) {
	if n := l.lookup(key); n != nil {
		n.dirty = false
	}
}

// Keys returns resident keys from most to least recently used (test helper).
func (l *LRU) Keys() []int64 {
	out := make([]int64, 0, l.size)
	for n := l.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}
