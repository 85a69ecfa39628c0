package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

func TestMemoComputesOnce(t *testing.T) {
	r := New(4)
	key := Key{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024}
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := r.Memo(bg, key, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: 42.5}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v != 42.5 {
			t.Fatalf("Memo = %v, want 42.5", v)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("Stats = %+v, want 1 miss / 4 hits", st)
	}
}

func TestMemoSingleFlight(t *testing.T) {
	r := New(8)
	key := Key{Bench: "sf"}
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.Memo(bg, key, func() (CellResult, error) {
				calls.Add(1)
				<-release // hold the computation so the others must coalesce
				return CellResult{Value: 7}, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Memo = %v, %v", v, err)
			}
		}()
	}
	// Let the one in-flight compute finish only after all goroutines have
	// had a chance to request the key.
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times under concurrent requests, want 1", got)
	}
}

func TestMemoCachesErrors(t *testing.T) {
	r := New(2)
	key := Key{Bench: "boom"}
	sentinel := errors.New("cell failed")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := r.Memo(bg, key, func() (CellResult, error) {
			calls++
			return CellResult{}, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("Memo error = %v, want %v", err, sentinel)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1 (errors memoized)", calls)
	}
}

func TestMemoCancelledContext(t *testing.T) {
	r := New(2)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := r.Memo(ctx, Key{Bench: "never"}, func() (CellResult, error) {
		t.Fatal("compute must not run under a cancelled context")
		return CellResult{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Memo error = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("cancelled Memo touched the counters: %+v", st)
	}
}

func TestMemoCancelledWhileCoalesced(t *testing.T) {
	// A waiter coalesced onto a slow in-flight cell must honor its own
	// context instead of blocking until the owner finishes.
	r := New(2)
	key := Key{Bench: "slow"}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := r.Memo(bg, key, func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{Value: 1}, nil
		})
		if err != nil {
			t.Errorf("owner Memo failed: %v", err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(bg)
	go cancel()
	_, err := r.Memo(ctx, key, func() (CellResult, error) { return CellResult{Value: 0}, nil })
	close(release)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("coalesced Memo error = %v, want context.Canceled", err)
	}
}

func TestMemoPanickingComputeReleasesResources(t *testing.T) {
	r := New(1) // one worker: a leaked token would wedge the runner
	key := Key{Bench: "kaboom"}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the computing caller")
			}
		}()
		_, _ = r.Memo(bg, key, func() (CellResult, error) { panic("boom") })
	}()
	// The panicked cell is cached as an error, not as a zero success.
	if _, err := r.Memo(bg, key, func() (CellResult, error) { return CellResult{Value: 1}, nil }); err == nil {
		t.Fatal("panicked cell must be cached as an error")
	}
	// The pool token was released: other cells still run.
	v, err := r.Memo(bg, Key{Bench: "after"}, func() (CellResult, error) { return CellResult{Value: 5}, nil })
	if err != nil || v != 5 {
		t.Fatalf("runner wedged after panic: %v, %v", v, err)
	}
}

func TestSharedCachePoolsResults(t *testing.T) {
	cache := NewCache()
	a := New(2, WithCache(cache))
	b := New(4, WithCache(cache))
	key := Key{Bench: "shared"}
	var calls atomic.Int64
	compute := func() (CellResult, error) { calls.Add(1); return CellResult{Value: 9}, nil }
	if _, err := a.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	v, err := b.Memo(bg, key, compute)
	if err != nil || v != 9 {
		t.Fatalf("Memo via second runner = %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("shared cache recomputed: %d calls", calls.Load())
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("shared cache stats = %+v, want 1 hit / 1 miss", st)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d cells, want 1", cache.Len())
	}
}

func TestPrivateCachesAreIsolated(t *testing.T) {
	a, b := New(2), New(2)
	key := Key{Bench: "isolated"}
	var calls atomic.Int64
	compute := func() (CellResult, error) { calls.Add(1); return CellResult{Value: 3}, nil }
	if _, err := a.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("isolated runners coalesced: %d calls, want 2", calls.Load())
	}
	if sa, sb := a.Stats(), b.Stats(); sa.Misses != 1 || sb.Misses != 1 || sa.Hits != 0 || sb.Hits != 0 {
		t.Fatalf("stats leaked across runners: a=%+v b=%+v", sa, sb)
	}
}

func TestObserverSeesHitsAndMisses(t *testing.T) {
	type event struct {
		key    Key
		cached bool
	}
	var mu sync.Mutex
	var events []event
	r := New(1)
	r.Observe(func(_ context.Context, key Key, cached bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, event{key, cached})
	})
	key := Key{Bench: "observed"}
	for i := 0; i < 2; i++ {
		if _, err := r.Memo(bg, key, func() (CellResult, error) { return CellResult{Value: 1}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(events) != 2 || events[0].cached || !events[1].cached {
		t.Fatalf("observer events = %+v, want miss then hit", events)
	}
}

func TestDoBoundsAndCancels(t *testing.T) {
	r := New(1)
	ran := false
	if err := r.Do(bg, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Do = %v, ran = %v", err, ran)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if err := r.Do(ctx, func() error { t.Fatal("must not run"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do under cancelled ctx = %v", err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			r := New(workers)
			out := make([]int, 100)
			err := r.Map(bg, len(out), func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapSerialRunsInOrder(t *testing.T) {
	r := New(1)
	var seen []int
	if err := r.Map(bg, 10, func(i int) error {
		seen = append(seen, i) // safe: workers==1 runs on the calling goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial Map visited %v, want ascending order", seen)
		}
	}
}

func TestMapReturnsError(t *testing.T) {
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
	// Serial mode stops at the first failing index.
	if err := New(1).Map(bg, 8, body); !errors.Is(err, errLow) {
		t.Fatalf("j=1: Map error = %v, want the first error", err)
	}
	// Parallel mode skips not-yet-started indices after a failure, so
	// either failing index may be the one reported — but one must be.
	err := New(4).Map(bg, 8, body)
	if !errors.Is(err, errLow) && !errors.Is(err, errHigh) {
		t.Fatalf("j=4: Map error = %v, want one of the injected errors", err)
	}
}

func TestMapStopsLaunchingAfterFailure(t *testing.T) {
	// With one worker beyond the failing goroutine, indices that start
	// after the failure is recorded must be skipped.
	r := New(2)
	var ran atomic.Int64
	boom := errors.New("boom")
	err := r.Map(bg, 64, func(i int) error {
		ran.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want boom", err)
	}
	if got := ran.Load(); got == 64 {
		t.Fatalf("all 64 indices ran despite every one failing — no early exit")
	}
}

func TestMapCancelledMidSweepSerial(t *testing.T) {
	// Serial mode checks the context between indices, so a cancellation
	// raised inside index 0 deterministically stops the sweep there.
	r := New(1)
	ctx, cancel := context.WithCancel(bg)
	var ran int
	err := r.Map(ctx, 64, func(i int) error {
		ran++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d indices after cancellation, want 1", ran)
	}
}

func TestMapCancelledBeforeStartParallel(t *testing.T) {
	r := New(4)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	var ran atomic.Int64
	err := r.Map(ctx, 64, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map error = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d indices ran under a pre-cancelled context, want 0", got)
	}
}

func TestMapNests(t *testing.T) {
	// Outer Map items each run an inner Map plus a Memo'd cell; with a
	// pool of 2 this deadlocks unless only Memo's compute holds a token.
	r := New(2)
	var cells atomic.Int64
	err := r.Map(bg, 6, func(i int) error {
		return r.Map(bg, 6, func(j int) error {
			_, err := r.Memo(bg, Key{Bench: "nest", Procs: i, Size: j}, func() (CellResult, error) {
				cells.Add(1)
				return CellResult{Value: float64(i * j)}, nil
			})
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cells.Load(); got != 36 {
		t.Fatalf("ran %d cells, want 36", got)
	}
}

func TestCollectCancelled(t *testing.T) {
	r := New(1)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := Collect(ctx, r, []int{1, 2, 3}, func(j int) (int, error) { return j, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect error = %v, want context.Canceled", err)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	for _, w := range []int{0, -3} {
		if got := New(w).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("New(%d).Workers() = %d, want GOMAXPROCS", w, got)
		}
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("New(7).Workers() = %d", got)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Platform: "sun-ethernet", Tool: "pvm", Bench: "ring", Procs: 4, Size: 2048}
	want := "sun-ethernet/pvm/ring procs=4 size=2048 scale=0"
	if got := k.String(); got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

func TestCacheLenAndReset(t *testing.T) {
	c := NewCache()
	if c.Len() != 0 {
		t.Fatalf("fresh cache Len = %d, want 0", c.Len())
	}
	r := New(2, WithCache(c))
	var calls atomic.Int64
	compute := func() (CellResult, error) {
		calls.Add(1)
		return CellResult{Value: 1}, nil
	}
	for i := 0; i < 3; i++ {
		key := Key{Bench: "cell", Size: i}
		if _, err := r.Memo(bg, key, compute); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Memo(bg, key, compute); err != nil { // hit
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache Len = %d after 3 distinct cells, want 3", c.Len())
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("Stats = %+v, want 3 misses / 3 hits", st)
	}

	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("cache Len = %d after Reset, want 0", c.Len())
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Stats = %+v after Reset, want zeroes", st)
	}
	// Dropped cells recompute (deterministically) on the next request.
	if _, err := r.Memo(bg, Key{Bench: "cell", Size: 0}, compute); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("compute ran %d times, want 4 (3 before Reset + 1 after)", got)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("post-Reset Stats = %+v, want exactly 1 miss", st)
	}
}

func TestCacheResetDoesNotStrandInFlight(t *testing.T) {
	c := NewCache()
	r := New(4, WithCache(c))
	started := make(chan struct{})
	release := make(chan struct{})
	key := Key{Bench: "inflight"}
	done := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, key, func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{Value: 9}, nil
		})
		done <- v
	}()
	<-started
	c.Reset() // drops the in-flight entry from the map
	close(release)
	if v := <-done; v != 9 {
		t.Fatalf("in-flight Memo = %v after Reset, want 9", v)
	}
	// The entry was dropped, so a later call recomputes rather than
	// waiting on anything stale.
	v, err := r.Memo(bg, key, func() (CellResult, error) { return CellResult{Value: 11}, nil })
	if err != nil || v != 11 {
		t.Fatalf("post-Reset Memo = %v, %v, want 11", v, err)
	}
}

func TestKeyHashStable(t *testing.T) {
	// The content address must be a pure function of the key: equal
	// keys hash equal, and distinct fields actually reach the hash.
	a := Key{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024}
	if a.Hash() != a.Hash() {
		t.Fatal("hash is not deterministic")
	}
	distinct := []Key{
		a,
		{Platform: "sun-atm-lan", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "pvm", Bench: "pingpong", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "ring", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 4, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 2048},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024, Scale: 0.5},
	}
	hashes := map[uint64]Key{}
	for _, k := range distinct {
		if prev, dup := hashes[k.Hash()]; dup {
			t.Fatalf("hash collision between %v and %v", prev, k)
		}
		hashes[k.Hash()] = k
	}
}
