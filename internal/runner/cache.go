package runner

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// entry is one memoized cell. done is closed once val/err are final, so
// latecomers for an in-flight cell block instead of re-simulating. el
// is the entry's node in the cache's recency list — always non-nil,
// maintained even while the cache is unbounded so that SetCapacity can
// start evicting in true LRU order at any point in the cache's life.
// virtual is the cell's simulated wall-clock, retained so Lookup can
// reconstruct the full CellResult (a remote worker re-serving a warm
// cell must report the same virtual cost it would on a cold compute).
type entry struct {
	done    chan struct{}
	val     float64
	virtual time.Duration
	err     error
	el      *list.Element
}

// Cache is the memoization store for experiment cells. It is safe for
// concurrent use and may be shared between executors (sessions that
// want to pool their simulation results while keeping independent
// parallelism bounds). The zero value is not usable; call NewCache.
//
// One mutex guards one map and one recency list, so the LRU order is
// exact across the whole cache.
//
// By default a Cache grows without bound — the paper's evaluation
// matrix is finite, so for one sweep that is the right policy. Long-
// lived shared caches (a multi-tenant server memoizing across sessions)
// can bound it with SetCapacity, which turns it into an LRU: inserting
// beyond the capacity evicts the least-recently-used completed cell.
// Evicted cells are recomputed on next request — correct, since cells
// are deterministic.
type Cache struct {
	mu       sync.Mutex
	m        map[Key]*entry
	capacity int        // 0 = unbounded
	order    *list.List // of Key; front = most recently used

	// tier is the optional durable second tier (see SetTier): consulted
	// on misses, written through on completed cells. Boxed behind an
	// atomic pointer so the Memo hot path loads it without a lock.
	tier atomic.Pointer[tierBox]

	hits   atomic.Int64
	misses atomic.Int64
}

// tierBox wraps the Tier interface value so it can sit behind an
// atomic.Pointer.
type tierBox struct{ t Tier }

// NewCache returns an empty, unbounded cell cache. SetCapacity bounds
// it.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*entry), order: list.New()}
}

// fnv-1a over the canonical key fields, so a key's hash is a pure
// function of its content.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Field separator, so ("ab","c") and ("a","bc") cannot alias.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// fnvUint64 folds a whole word in with one xor/multiply round — the
// numeric key fields are small and the multiply mixes them plenty for
// bucket selection, at an eighth of the byte-at-a-time cost.
func fnvUint64(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime64
	return h
}

// Hash is FNV-1a over the canonical key fields. One hash is the
// content address everywhere: it routes keys over remote workers, and
// the durable store records it per cell as the key's fingerprint.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, k.Platform)
	h = fnvString(h, k.Tool)
	h = fnvString(h, k.Bench)
	h = fnvUint64(h, uint64(k.Procs))
	h = fnvUint64(h, uint64(k.Size))
	h = fnvUint64(h, math.Float64bits(k.Scale))
	return h
}

// SetCapacity bounds the cache to at most n cells, evicting the
// least-recently-used completed cells immediately if it already holds
// more. n <= 0 removes the bound. Cells whose computation is still in
// flight are never evicted — single-flight coalescing stays intact — so
// the cache may transiently exceed n by its in-flight cells.
func (c *Cache) SetCapacity(n int) {
	c.mu.Lock()
	c.capacity = max(n, 0)
	c.evictLocked()
	c.mu.Unlock()
}

// Capacity reports the configured bound (0 = unbounded).
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// evictLocked drops least-recently-used completed cells until the
// cache fits its capacity. Dropping a completed entry is safe
// concurrently with readers that already hold it: they block on its
// done channel (or have read val/err), never on map membership.
// In-flight entries are skipped so coalesced waiters keep finding them.
func (c *Cache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for el := c.order.Back(); el != nil && len(c.m) > c.capacity; {
		prev := el.Prev()
		key := el.Value.(Key)
		e := c.m[key]
		select {
		case <-e.done: // completed: evictable
			delete(c.m, key)
			c.order.Remove(el)
		default: // in flight: keep
		}
		el = prev
	}
}

// lookupLocked finds key and marks it most recently used.
func (c *Cache) lookupLocked(key Key) (*entry, bool) {
	e, ok := c.m[key]
	if ok {
		c.order.MoveToFront(e.el)
	}
	return e, ok
}

// insertLocked publishes a fresh in-flight entry for key and evicts if
// the insertion crossed the capacity.
func (c *Cache) insertLocked(key Key) *entry {
	e := &entry{done: make(chan struct{})}
	e.el = c.order.PushFront(key)
	c.m[key] = e
	c.evictLocked()
	return e
}

// remove un-publishes e from the cache — the memoization path calls it
// to retract an entry whose compute resolved to a context error, which
// the Memo contract forbids caching. The entry-identity check makes the
// retraction safe concurrently with Reset (which swaps the map) and
// with a later re-publication of the same key.
func (c *Cache) remove(key Key, e *entry) {
	c.mu.Lock()
	if cur, ok := c.m[key]; ok && cur == e {
		delete(c.m, key)
		c.order.Remove(e.el)
	}
	c.mu.Unlock()
}

// Lookup peeks at the completed, successful cell memoized for key. It
// reports false for absent, in-flight, and failed entries, and does not
// touch the hit/miss counters — it is a read-side peek for callers (a
// worker daemon answering a cell RPC) that already resolved the cell
// through Memo and need the full CellResult back, not a scheduling
// primitive.
func (c *Cache) Lookup(key Key) (CellResult, bool) {
	c.mu.Lock()
	e, ok := c.lookupLocked(key)
	c.mu.Unlock()
	if !ok {
		return CellResult{}, false
	}
	select {
	case <-e.done:
	default:
		return CellResult{}, false
	}
	if e.err != nil {
		return CellResult{}, false
	}
	return CellResult{Value: e.val, Virtual: e.virtual}, true
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len reports how many cells are memoized or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every memoized cell and zeroes the hit/miss counters,
// returning the cache to its freshly-constructed state (the configured
// capacity survives). It is the drop-everything eviction policy for
// long-lived shared caches; SetCapacity is the incremental one.
//
// Reset is safe concurrently with in-flight Memo calls: a computation
// that was published before the Reset still completes and wakes every
// waiter already coalesced onto it — the entry is merely no longer
// findable, so later calls for the same key recompute (correctly, since
// cells are deterministic).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.m = make(map[Key]*entry)
	c.order.Init()
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}
