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
// is the entry's node in its stripe's recency list — always non-nil,
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

// stripe is one independently locked segment of a Cache: its own map,
// recency list, and capacity share. Striping is what keeps a cache
// shared by many worker pools (a server's tenants) off a single hot
// mutex — two cells in different stripes never contend.
type stripe struct {
	mu       sync.Mutex
	m        map[Key]*entry
	capacity int        // this stripe's share of the bound; 0 = unbounded
	order    *list.List // of Key; front = most recently used

	// pad spreads consecutively allocated stripes over distinct cache
	// lines so one stripe's mutex traffic does not false-share with its
	// neighbors.
	_ [96]byte
}

// Cache is the memoization store for experiment cells. It is safe for
// concurrent use and may be shared between executors (sessions that
// want to pool their simulation results while keeping independent
// parallelism bounds). The zero value is not usable; call NewCache or
// NewStripedCache.
//
// Internally the store is split into one or more stripes, each with its
// own lock, map, and LRU list; a key's stripe is fixed by an FNV hash
// over its canonical fields. NewCache builds a single-stripe cache —
// exact global LRU order, the right default for one session's pool —
// while NewStripedCache spreads the keys over n independently locked
// segments for high-contention use (many pools hammering one cache).
// Len, Reset, SetCapacity, and Stats aggregate across stripes; the
// single-flight and in-flight-never-evicted invariants hold per stripe.
//
// By default a Cache grows without bound — the paper's evaluation
// matrix is finite, so for one sweep that is the right policy. Long-
// lived shared caches (a multi-tenant server memoizing across sessions)
// can bound it with SetCapacity, which turns each stripe into an LRU:
// inserting beyond a stripe's share of the capacity evicts that
// stripe's least-recently-used completed cell. Evicted cells are
// recomputed on next request — correct, since cells are deterministic.
type Cache struct {
	stripes []*stripe

	// capacity is the configured total bound (0 = unbounded), kept for
	// Capacity(); each stripe holds its own share.
	capacity atomic.Int64

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

// defaultStripes is the stripe count NewStripedCache selects when the
// caller does not care: wide enough that a handful of worker pools
// rarely collide, small enough to stay cheap to aggregate over.
const defaultStripes = 16

// NewCache returns an empty, unbounded, single-stripe cell cache:
// exact global LRU semantics, one lock. Use NewStripedCache when many
// pools share the cache and the lock would become the bottleneck.
// SetCapacity bounds either kind.
func NewCache() *Cache { return NewStripedCache(1) }

// NewStripedCache returns an empty, unbounded cache split into n
// independently locked stripes. n < 1 selects a default (16). A
// striped cache trades exact global LRU order for per-stripe LRU and
// uncontended access — the right shape for a cache many sessions share.
func NewStripedCache(n int) *Cache {
	if n < 1 {
		n = defaultStripes
	}
	c := &Cache{stripes: make([]*stripe, n)}
	for i := range c.stripes {
		c.stripes[i] = &stripe{m: make(map[Key]*entry), order: list.New()}
	}
	return c
}

// Stripes reports how many independently locked segments the cache is
// split into (1 for NewCache).
func (c *Cache) Stripes() int { return len(c.stripes) }

// stripeFor picks the segment owning key. Single-stripe caches skip
// the hash entirely — the default Runner never pays for striping it
// does not use. The hash is reduced to a stripe index with a
// multiply-shift instead of a modulo: the stripe count is dynamic, so
// % would be a hardware divide on the Memo hot path.
func (c *Cache) stripeFor(key Key) *stripe {
	n := len(c.stripes)
	if n == 1 {
		return c.stripes[0]
	}
	return c.stripes[(key.Hash()&0xffffffff)*uint64(n)>>32]
}

// fnv-1a over the canonical key fields, so a key's stripe is a pure
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
// content address everywhere: it partitions keys over cache stripes,
// routes them over remote workers, and the durable store records it
// per cell as the key's fingerprint.
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
// more. n <= 0 removes the bound. The bound is divided evenly across
// the stripes (rounded up, so a striped cache may admit up to
// stripes-1 cells more than n); cells whose computation is still in
// flight are never evicted — single-flight coalescing stays intact — so
// a stripe may transiently exceed its share by its in-flight cells.
func (c *Cache) SetCapacity(n int) {
	if n < 0 {
		n = 0
	}
	c.capacity.Store(int64(n))
	per := 0
	if n > 0 {
		per = (n + len(c.stripes) - 1) / len(c.stripes)
	}
	for _, s := range c.stripes {
		s.mu.Lock()
		s.capacity = per
		s.evictLocked()
		s.mu.Unlock()
	}
}

// Capacity reports the configured total bound (0 = unbounded).
func (c *Cache) Capacity() int { return int(c.capacity.Load()) }

// evictLocked drops least-recently-used completed cells until the
// stripe fits its capacity share. Dropping a completed entry is safe
// concurrently with readers that already hold it: they block on its
// done channel (or have read val/err), never on map membership.
// In-flight entries are skipped so coalesced waiters keep finding them.
func (s *stripe) evictLocked() {
	if s.capacity <= 0 {
		return
	}
	for el := s.order.Back(); el != nil && len(s.m) > s.capacity; {
		prev := el.Prev()
		key := el.Value.(Key)
		e := s.m[key]
		select {
		case <-e.done: // completed: evictable
			delete(s.m, key)
			s.order.Remove(el)
		default: // in flight: keep
		}
		el = prev
	}
}

// lookupLocked finds key and marks it most recently used.
func (s *stripe) lookupLocked(key Key) (*entry, bool) {
	e, ok := s.m[key]
	if ok {
		s.order.MoveToFront(e.el)
	}
	return e, ok
}

// insertLocked publishes a fresh in-flight entry for key and evicts if
// the insertion crossed the stripe's capacity share.
func (s *stripe) insertLocked(key Key) *entry {
	e := &entry{done: make(chan struct{})}
	e.el = s.order.PushFront(key)
	s.m[key] = e
	s.evictLocked()
	return e
}

// remove un-publishes e from the stripe — the memoization path calls it
// to retract an entry whose compute resolved to a context error, which
// the Memo contract forbids caching. The entry-identity check makes the
// retraction safe concurrently with Reset (which swaps the map) and
// with a later re-publication of the same key.
func (s *stripe) remove(key Key, e *entry) {
	s.mu.Lock()
	if cur, ok := s.m[key]; ok && cur == e {
		delete(s.m, key)
		s.order.Remove(e.el)
	}
	s.mu.Unlock()
}

// Lookup peeks at the completed, successful cell memoized for key. It
// reports false for absent, in-flight, and failed entries, and does not
// touch the hit/miss counters — it is a read-side peek for callers (a
// worker daemon answering a cell RPC) that already resolved the cell
// through Memo and need the full CellResult back, not a scheduling
// primitive.
func (c *Cache) Lookup(key Key) (CellResult, bool) {
	st := c.stripeFor(key)
	st.mu.Lock()
	e, ok := st.lookupLocked(key)
	st.mu.Unlock()
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

// Len reports how many cells are memoized or in flight, summed over the
// stripes.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
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
// cells are deterministic). Stripes reset one at a time, so a
// concurrent sweep may see some stripes emptied before others.
func (c *Cache) Reset() {
	for _, s := range c.stripes {
		s.mu.Lock()
		s.m = make(map[Key]*entry)
		s.order.Init()
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
}
