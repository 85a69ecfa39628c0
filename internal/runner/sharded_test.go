package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// keysInBucket returns n distinct keys that all hash-route to bucket
// index want out of buckets — the in-package way to aim load at one
// shard pool or one cache stripe (both use the same hash/bucket
// routing).
func keysInBucket(buckets, want, n int) []Key {
	keys := make([]Key, 0, n)
	for size := 0; len(keys) < n; size++ {
		k := Key{Bench: "pin", Size: size}
		if bucket(k.Hash(), buckets) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestShardedImplementsExecutorContract(t *testing.T) {
	s := NewSharded(4, 2)
	if got := s.Workers(); got != 8 {
		t.Fatalf("Workers = %d, want 4 shards × 2 = 8", got)
	}
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	if s.Cache() == nil || s.Cache().Stripes() < 4 {
		t.Fatalf("sharded executor should front a striped cache, got %d stripes", s.Cache().Stripes())
	}
	v, err := s.Memo(bg, Key{Bench: "contract"}, func() (CellResult, error) {
		return CellResult{Value: 5}, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("Memo = %v, %v", v, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Stats = %+v, want 1 miss", st)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("Cache.Len = %d, want 1", s.Cache().Len())
	}
}

func TestShardedClampsArguments(t *testing.T) {
	s := NewSharded(0, 0)
	if s.Shards() < 1 || s.Workers() < s.Shards() {
		t.Fatalf("clamped executor: shards=%d workers=%d", s.Shards(), s.Workers())
	}
	// More shards than GOMAXPROCS still gives every shard one worker.
	if got := NewSharded(64, 0).Workers(); got != 64 {
		t.Fatalf("NewSharded(64, 0).Workers() = %d, want 64 (one per shard)", got)
	}
}

func TestShardedMemoizesAndCoalesces(t *testing.T) {
	s := NewSharded(4, 2)
	key := Key{Bench: "sf-sharded"}
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Memo(bg, key, func() (CellResult, error) {
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
		t.Fatalf("compute ran %d times under concurrent requests, want 1 (single-flight across shards)", got)
	}
	// Replays are hits.
	if _, err := s.Memo(bg, key, func() (CellResult, error) {
		t.Error("cached cell recomputed")
		return CellResult{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits < 16 {
		t.Fatalf("Stats = %+v, want 1 miss and >= 16 hits", st)
	}
}

func TestShardedRoutesKeyToOneShard(t *testing.T) {
	// A key pinned to shard 0 must serialize behind that shard's single
	// worker even while the other shards sit idle: the shard bound, not
	// the global bound, governs one shard's keys.
	const shards = 4
	s := NewSharded(shards, 1)
	keys := keysInBucket(shards, 0, 6)
	var inShard, peak atomic.Int64
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func(key Key) {
			defer wg.Done()
			_, err := s.Memo(bg, key, func() (CellResult, error) {
				if cur := inShard.Add(1); cur > peak.Load() {
					peak.Store(cur)
				}
				defer inShard.Add(-1)
				return CellResult{Value: 1}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(key)
	}
	wg.Wait()
	if got := peak.Load(); got > 1 {
		t.Fatalf("shard 0 ran %d cells concurrently with workersPerShard=1", got)
	}
}

func TestShardedDoRoundRobinsAndBounds(t *testing.T) {
	// 4 shards × 1 worker: round-robin admits up to 4 concurrent Do
	// bodies, and a 5th must wait for a slot.
	s := NewSharded(4, 1)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Do(bg, func() error {
				started <- struct{}{}
				<-release
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-started // all four shards occupied
	}
	// The fifth Do targets an occupied shard: it must respect ctx while
	// waiting for the slot.
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if err := s.Do(ctx, func() error { t.Error("must not run"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do on a full shard under cancelled ctx = %v", err)
	}
	close(release)
	wg.Wait()
}

func TestShardedMapOrderedFirstError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	body := func(i int) error {
		switch i {
		case 2:
			return errLow
		case 6:
			return errHigh
		}
		return nil
	}
	// A 1×1 sharded executor degenerates to the serial loop: first
	// failing index, deterministically.
	if err := NewSharded(1, 1).Map(bg, 8, body); !errors.Is(err, errLow) {
		t.Fatalf("1×1 sharded Map error = %v, want the first error", err)
	}
	err := NewSharded(4, 2).Map(bg, 8, body)
	if !errors.Is(err, errLow) && !errors.Is(err, errHigh) {
		t.Fatalf("sharded Map error = %v, want one of the injected errors", err)
	}
}

func TestShardedMapPreservesOrderAndNests(t *testing.T) {
	s := NewSharded(2, 2)
	out := make([]float64, 36)
	err := s.Map(bg, 6, func(i int) error {
		return s.Map(bg, 6, func(j int) error {
			v, err := s.Memo(bg, Key{Bench: "nest-sharded", Procs: i, Size: j}, func() (CellResult, error) {
				return CellResult{Value: float64(i * j)}, nil
			})
			out[i*6+j] = v
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if out[i*6+j] != float64(i*j) {
				t.Fatalf("out[%d][%d] = %v, want %d", i, j, out[i*6+j], i*j)
			}
		}
	}
}

func TestShardedObserverSeesEveryCell(t *testing.T) {
	s := NewSharded(4, 1)
	var mu sync.Mutex
	seen := map[Key]int{}
	s.Observe(func(_ context.Context, key Key, cached bool, err error) {
		mu.Lock()
		seen[key]++
		mu.Unlock()
	})
	const cells = 24
	for i := 0; i < cells; i++ {
		if _, err := s.Memo(bg, Key{Bench: "observed-sharded", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != cells {
		t.Fatalf("observer saw %d distinct cells, want %d", len(seen), cells)
	}
}

func TestShardedSharesCacheWithRunner(t *testing.T) {
	// A striped cache handed to both a plain Runner and a Sharded
	// executor pools their results, exactly like two Runners would.
	cache := NewStripedCache(8)
	r := New(2, WithCache(cache))
	s := NewSharded(4, 1, WithCache(cache))
	if s.Cache() != cache {
		t.Fatal("WithCache not honored by NewSharded")
	}
	key := Key{Bench: "pooled"}
	var calls atomic.Int64
	compute := func() (CellResult, error) { calls.Add(1); return CellResult{Value: 9}, nil }
	if _, err := r.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	v, err := s.Memo(bg, key, compute)
	if err != nil || v != 9 {
		t.Fatalf("sharded Memo over shared cache = %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("shared cache recomputed: %d calls", calls.Load())
	}
}

func TestShardedCacheCapacityOption(t *testing.T) {
	s := NewSharded(2, 1, WithCacheCapacity(64))
	if got := s.Cache().Capacity(); got != 64 {
		t.Fatalf("Capacity = %d, want 64", got)
	}
}

func TestShardedPanickingCellDoesNotWedgeShard(t *testing.T) {
	const shards = 4
	s := NewSharded(shards, 1)
	keys := keysInBucket(shards, 1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the computing caller")
			}
		}()
		_, _ = s.Memo(bg, keys[0], func() (CellResult, error) { panic("boom") })
	}()
	// The shard's only token was released: its next cell still runs.
	v, err := s.Memo(bg, keys[1], func() (CellResult, error) { return CellResult{Value: 5}, nil })
	if err != nil || v != 5 {
		t.Fatalf("shard wedged after panic: %v, %v", v, err)
	}
	// And the panicked cell is cached as an error.
	if _, err := s.Memo(bg, keys[0], func() (CellResult, error) { return CellResult{Value: 1}, nil }); err == nil {
		t.Fatal("panicked cell must be cached as an error")
	}
}

func TestShardedDeterministicVsRunner(t *testing.T) {
	// The same synthetic matrix computed through a serial Runner and a
	// sharded executor must assemble identical results — the executor
	// contract the determinism suite pins end to end with real cells.
	cell := func(k Key) float64 { return float64(k.Procs*1000+k.Size) / 7 }
	sweep := func(x Executor) []float64 {
		out := make([]float64, 64)
		err := x.Map(bg, len(out), func(i int) error {
			k := Key{Bench: "det", Procs: i / 8, Size: i % 8}
			v, err := x.Memo(bg, k, func() (CellResult, error) {
				return CellResult{Value: cell(k)}, nil
			})
			out[i] = v
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sweep(New(1))
	for _, shards := range []int{1, 2, 4, 7} {
		got := sweep(NewSharded(shards, 2))
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("shards=%d: point %d = %v, want %v", shards, i, got[i], serial[i])
			}
		}
	}
}

func TestShardedStatsAggregateAcrossShards(t *testing.T) {
	s := NewSharded(4, 2)
	const cells = 32
	for round := 0; round < 2; round++ {
		for i := 0; i < cells; i++ {
			if _, err := s.Memo(bg, Key{Bench: "agg", Size: i}, func() (CellResult, error) {
				return CellResult{Value: float64(i)}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Misses != cells || st.Hits != cells {
		t.Fatalf("Stats = %+v, want %d misses / %d hits", st, cells, cells)
	}
}

func TestShardedWorkersFormula(t *testing.T) {
	for _, tc := range []struct{ shards, per, want int }{
		{1, 1, 1},
		{2, 3, 6},
		{8, 2, 16},
	} {
		if got := NewSharded(tc.shards, tc.per).Workers(); got != tc.want {
			t.Fatalf("NewSharded(%d, %d).Workers() = %d, want %d", tc.shards, tc.per, got, tc.want)
		}
	}
}

func TestStripesForCoversShardCounts(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{
		{1, 4}, {2, 8}, {4, 16}, {5, 32}, {16, 64},
	} {
		if got := stripesFor(tc.shards); got != tc.want {
			t.Fatalf("stripesFor(%d) = %d, want %d", tc.shards, got, tc.want)
		}
	}
}

func TestShardedCollect(t *testing.T) {
	// Collect, the generic ordered fan-out every experiment uses, works
	// over the sharded backend unchanged.
	s := NewSharded(3, 2)
	jobs := []int{1, 2, 3, 4, 5}
	out, err := Collect(bg, s, jobs, func(j int) (string, error) {
		return fmt.Sprintf("cell-%d", j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if want := fmt.Sprintf("cell-%d", j); out[i] != want {
			t.Fatalf("out[%d] = %q, want %q", i, out[i], want)
		}
	}
}
