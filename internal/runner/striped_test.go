package runner

import (
	"sync"
	"sync/atomic"
	"testing"
)

// keysInStripe returns n distinct keys that all land in stripe want of
// c — the in-package way to aim load at one cache stripe.
func keysInStripe(c *Cache, want, n int) []Key {
	keys := make([]Key, 0, n)
	for size := 0; len(keys) < n; size++ {
		k := Key{Bench: "pin", Size: size}
		if c.stripeFor(k) == c.stripes[want] {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestStripedCacheDefaults(t *testing.T) {
	if got := NewCache().Stripes(); got != 1 {
		t.Fatalf("NewCache().Stripes() = %d, want 1 (exact global LRU)", got)
	}
	if got := NewStripedCache(0).Stripes(); got != defaultStripes {
		t.Fatalf("NewStripedCache(0).Stripes() = %d, want the default %d", got, defaultStripes)
	}
	if got := NewStripedCache(7).Stripes(); got != 7 {
		t.Fatalf("NewStripedCache(7).Stripes() = %d, want 7", got)
	}
}

func TestStripedCacheAggregatesLenStatsReset(t *testing.T) {
	c := NewStripedCache(8)
	r := New(4, WithCache(c))
	const cells = 100
	for i := 0; i < cells; i++ {
		key := Key{Bench: "agg-striped", Size: i}
		if _, err := r.Memo(bg, key, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Memo(bg, key, func() (CellResult, error) {
			t.Error("hit recomputed")
			return CellResult{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != cells {
		t.Fatalf("Len = %d summed over stripes, want %d", got, cells)
	}
	if st := c.Stats(); st.Misses != cells || st.Hits != cells {
		t.Fatalf("Stats = %+v, want %d/%d", st, cells, cells)
	}
	c.Reset()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after Reset, want 0 (every stripe dropped)", got)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Stats = %+v after Reset, want zeroes", st)
	}
}

func TestStripedCapacityDividedPerStripe(t *testing.T) {
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(8) // 2 per stripe
	if got := c.Capacity(); got != 8 {
		t.Fatalf("Capacity = %d, want the configured total 8", got)
	}
	r := New(1, WithCache(c))
	var calls atomic.Int64
	memo := func(k Key) {
		t.Helper()
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Four keys aimed at one stripe overflow its share of two even
	// though the cache as a whole is nowhere near its total bound.
	keys := keysInStripe(c, 0, 4)
	for _, k := range keys {
		memo(k)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after overflowing one stripe, want its share 2", got)
	}
	// The survivors are the most recently used pair; the first two were
	// evicted and recompute on request.
	memo(keys[3])
	memo(keys[2])
	if got := calls.Load(); got != 4 {
		t.Fatalf("computed %d cells, want 4 (the per-stripe survivors replay)", got)
	}
	memo(keys[0])
	if got := calls.Load(); got != 5 {
		t.Fatalf("computed %d cells, want 5 (evicted key recomputes)", got)
	}
}

func TestStripedEvictionOrderAtStripeBoundary(t *testing.T) {
	// The LRU order within one stripe must match the single-stripe
	// cache's behavior exactly: touch a key and the other becomes the
	// eviction victim.
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(2 * stripes) // 2 per stripe
	r := New(1, WithCache(c))
	var calls atomic.Int64
	memo := func(k Key) {
		t.Helper()
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: float64(k.Size)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	keys := keysInStripe(c, 1, 3)
	memo(keys[0])
	memo(keys[1])
	memo(keys[0]) // touch key 0: key 1 becomes the stripe's LRU
	memo(keys[2]) // evicts key 1
	memo(keys[0]) // still cached
	if got := calls.Load(); got != 3 {
		t.Fatalf("computed %d cells, want 3 (touched key survived)", got)
	}
	memo(keys[1]) // evicted: recomputes
	if got := calls.Load(); got != 4 {
		t.Fatalf("computed %d cells after re-requesting the stripe's LRU victim, want 4", got)
	}
}

func TestStripedInFlightNeverEvicted(t *testing.T) {
	// Filling a stripe past its share while one of its cells is still
	// computing must not evict the in-flight entry: coalesced waiters
	// keep finding it (the per-stripe form of the Cache invariant).
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(stripes) // 1 per stripe
	r := New(4, WithCache(c))
	keys := keysInStripe(c, 2, 4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, keys[0], func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{Value: 9}, nil
		})
		done <- v
	}()
	<-started
	for _, k := range keys[1:3] {
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waiter := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, keys[0], func() (CellResult, error) {
			t.Error("coalesced waiter recomputed an in-flight cell")
			return CellResult{}, nil
		})
		waiter <- v
	}()
	close(release)
	if v := <-done; v != 9 {
		t.Fatalf("in-flight Memo = %v, want 9", v)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("coalesced Memo = %v, want 9", v)
	}
	// Once completed, the next insert in that stripe shrinks it back to
	// its share.
	if _, err := r.Memo(bg, keys[3], func() (CellResult, error) {
		return CellResult{Value: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got > stripes {
		t.Fatalf("Len = %d after all cells completed, want <= %d (every stripe at its share)", got, stripes)
	}
}

// TestStripedCacheConcurrentCapacityResetMemo is the -race soak of the
// striped cache: Memo traffic across every stripe racing SetCapacity
// flips and Resets. Correctness bar: no deadlock, no lost update (a
// Memo always returns its key's value), bound respected at quiesce.
func TestStripedCacheConcurrentCapacityResetMemo(t *testing.T) {
	const stripes, capacity = 8, 32
	c := NewStripedCache(stripes)
	c.SetCapacity(capacity)
	r := New(8, WithCache(c))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := Key{Bench: "striped-storm", Size: (g*13 + i) % 96}
				v, err := r.Memo(bg, key, func() (CellResult, error) {
					return CellResult{Value: float64(key.Size)}, nil
				})
				if err != nil {
					t.Errorf("Memo: %v", err)
					return
				}
				if v != float64(key.Size) {
					t.Errorf("Memo = %v, want %d (stale or clobbered cell)", v, key.Size)
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			c.SetCapacity(capacity / 2)
			c.SetCapacity(capacity)
			c.SetCapacity(0)
			c.SetCapacity(capacity)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			c.Reset()
			_ = c.Len()
		}
	}()
	wg.Wait()
	// Re-establish the bound and fill: at quiesce the aggregate length
	// must respect capacity plus the rounding headroom (one per stripe).
	c.SetCapacity(capacity)
	for i := 0; i < 96; i++ {
		if _, err := r.Memo(bg, Key{Bench: "striped-fill", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > capacity+stripes {
		t.Fatalf("Len = %d at quiesce, want <= capacity %d + per-stripe rounding %d", got, capacity, stripes)
	}
}

func TestStripedMemoSingleFlight(t *testing.T) {
	// Concurrent requests for one key on a striped cache coalesce onto
	// a single compute, exactly as on the single-stripe default.
	r := New(8, WithCache(NewStripedCache(16)))
	key := Key{Bench: "sf-striped"}
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.Memo(bg, key, func() (CellResult, error) {
				calls.Add(1)
				<-release
				return CellResult{Value: 7}, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Memo = %v, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times under concurrent requests, want 1", got)
	}
	if _, err := r.Memo(bg, key, func() (CellResult, error) {
		t.Error("cached cell recomputed")
		return CellResult{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits < 16 {
		t.Fatalf("Stats = %+v, want 1 miss and >= 16 hits", st)
	}
}

func TestStripedCacheSharedAcrossRunners(t *testing.T) {
	// A striped cache handed to two Runners with different bounds — the
	// shape a server shares across tenants — pools their results.
	cache := NewStripedCache(8)
	a := New(2, WithCache(cache))
	b := New(4, WithCache(cache))
	if a.Cache() != cache || b.Cache() != cache {
		t.Fatal("WithCache not honored by New")
	}
	key := Key{Bench: "pooled"}
	var calls atomic.Int64
	compute := func() (CellResult, error) { calls.Add(1); return CellResult{Value: 9}, nil }
	if _, err := a.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	v, err := b.Memo(bg, key, compute)
	if err != nil || v != 9 {
		t.Fatalf("Memo via second runner over striped cache = %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("shared striped cache recomputed: %d calls", calls.Load())
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("shared striped cache stats = %+v, want 1 hit / 1 miss", st)
	}
	if cache.Len() != 1 {
		t.Fatalf("striped cache holds %d cells, want 1", cache.Len())
	}
}
