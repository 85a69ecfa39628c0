package tooleval_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tooleval"
	"tooleval/internal/runner"
)

// TestRunAppEnforcesPortMatrix: RunApp must route through the same
// §3.1 port gate as the TPL benchmark methods — no fabricated curves
// for a port that never existed (Express had no NYNET port).
func TestRunAppEnforcesPortMatrix(t *testing.T) {
	sess := tooleval.NewSession()
	_, err := sess.RunApp(context.Background(), "sun-atm-wan", "express", "jpeg", []int{1, 2}, 0.1)
	if err == nil {
		t.Fatal("RunApp must reject express on NYNET")
	}
	if !strings.Contains(err.Error(), "no express port") {
		t.Fatalf("RunApp error = %v, want the port-matrix rejection", err)
	}
	if hits, misses := sess.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("rejected RunApp still simulated: %d hits / %d misses", hits, misses)
	}
	// Custom tools are ported everywhere, including through RunApp.
	custom := tooleval.NewSession(tooleval.WithTool("mpi-lite", mpiLite))
	if _, err := custom.RunApp(context.Background(), "sun-atm-wan", "mpi-lite", "montecarlo", []int{1}, 0.05); err != nil {
		t.Fatalf("custom tool must pass the RunApp port gate: %v", err)
	}
}

func TestWithMaxCellsBreach(t *testing.T) {
	cache := tooleval.NewCache()
	sess := tooleval.NewSession(
		tooleval.WithParallelism(1),
		tooleval.WithCache(cache),
		tooleval.WithMaxCells(3),
	)
	ctx := context.Background()
	sizes := []int{0, 1 << 10, 2 << 10, 4 << 10, 8 << 10}
	_, err := sess.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if !errors.Is(err, tooleval.ErrQuotaExceeded) {
		t.Fatalf("over-budget sweep = %v, want ErrQuotaExceeded", err)
	}
	var qe *tooleval.QuotaError
	if !errors.As(err, &qe) || qe.Resource != "cells" {
		t.Fatalf("error = %v, want *QuotaError over cells", err)
	}
	if _, misses := sess.Stats(); misses != 3 {
		t.Fatalf("breached session simulated %d cells, want exactly the budget 3", misses)
	}
	// The shared cache is not poisoned: an unbudgeted session completes
	// the same sweep, re-using the 3 cells the first session paid for.
	free := tooleval.NewSession(tooleval.WithParallelism(1), tooleval.WithCache(cache))
	times, err := free.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatalf("shared cache poisoned by quota breach: %v", err)
	}
	if len(times) != len(sizes) {
		t.Fatalf("got %d times, want %d", len(times), len(sizes))
	}
	// Counters travel with the shared cache: 3 misses paid by the
	// quota'd session, then 3 hits + 2 fresh misses from this sweep.
	if hits, misses := free.Stats(); hits != 3 || misses != int64(len(sizes)) {
		t.Fatalf("shared-cache stats after free sweep = %d hits / %d misses, want 3 / %d", hits, misses, len(sizes))
	}
}

func TestWithMaxVirtualTimeBreach(t *testing.T) {
	// One 64KB ping-pong on shared Ethernet covers ~100ms of virtual
	// time, so a 1ms budget admits the first cell (budgets are checked
	// before scheduling) and refuses the second.
	sess := tooleval.NewSession(
		tooleval.WithParallelism(1),
		tooleval.WithMaxVirtualTime(time.Millisecond),
	)
	_, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", []int{64 << 10, 32 << 10})
	if !errors.Is(err, tooleval.ErrQuotaExceeded) {
		t.Fatalf("over-budget sweep = %v, want ErrQuotaExceeded", err)
	}
	var qe *tooleval.QuotaError
	if !errors.As(err, &qe) || qe.Resource != "virtual time" {
		t.Fatalf("error = %v, want *QuotaError over virtual time", err)
	}
	if _, misses := sess.Stats(); misses != 1 {
		t.Fatalf("simulated %d cells, want 1 (first admitted, second refused)", misses)
	}
}

func TestQuotaAppliesToDirectRuns(t *testing.T) {
	// Session.Run goes through Executor.Do: a spent budget refuses it.
	sess := tooleval.NewSession(tooleval.WithParallelism(1), tooleval.WithMaxCells(1))
	ctx := context.Background()
	if _, err := sess.PingPong(ctx, "sun-ethernet", "p4", []int{0}); err != nil {
		t.Fatal(err)
	}
	_, err := sess.Run(ctx, "sun-ethernet", "p4", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return nil, nil })
	if !errors.Is(err, tooleval.ErrQuotaExceeded) {
		t.Fatalf("Run past budget = %v, want ErrQuotaExceeded", err)
	}
}

// TestSetCapacityBoundsSessionCache: a bound set on a cache before it
// is handed to WithCache holds for every cell the session memoizes.
func TestSetCapacityBoundsSessionCache(t *testing.T) {
	cache := tooleval.NewCache()
	cache.SetCapacity(2)
	sess := tooleval.NewSession(tooleval.WithParallelism(1), tooleval.WithCache(cache))
	sizes := []int{0, 1 << 10, 2 << 10, 4 << 10}
	if _, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", sizes); err != nil {
		t.Fatal(err)
	}
	if got := sess.Cache().Len(); got != 2 {
		t.Fatalf("session cache holds %d cells, want the capacity 2", got)
	}
	if _, misses := sess.Stats(); misses != int64(len(sizes)) {
		t.Fatalf("simulated %d cells, want %d", misses, len(sizes))
	}
}

func TestPhaseEventsNest(t *testing.T) {
	var mu sync.Mutex
	var order []string
	sess := tooleval.NewSession(tooleval.WithEvents(func(ev tooleval.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case tooleval.PhaseStart:
			order = append(order, "start:"+e.Phase)
		case tooleval.PhaseDone:
			if e.Err != nil {
				order = append(order, "fail:"+e.Phase)
			} else {
				order = append(order, "done:"+e.Phase)
			}
		}
	}))
	if _, err := sess.Table4(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) == 0 || order[0] != "start:table4" || order[len(order)-1] != "done:table4" {
		t.Fatalf("phase order = %v, want table4 bracketing its nested phases", order)
	}
	seen := map[string]bool{}
	for _, ev := range order {
		seen[ev] = true
	}
	for _, want := range []string{"start:table3", "done:table3", "start:fig2", "done:fig2", "start:fig3", "done:fig3", "start:fig4", "done:fig4"} {
		if !seen[want] {
			t.Fatalf("phase stream missing %q: %v", want, order)
		}
	}
}

// fakeExecutor is a from-scratch Executor built only from the public
// surface: a serial backend with its own memoization. It proves the
// seam — Session routes every cell, direct run, and fan-out through
// whatever implementation WithExecutor supplies.
type fakeExecutor struct {
	mu      sync.Mutex
	done    map[tooleval.Cell]float64
	hits    int64
	misses  int64
	doCalls int64
	observe tooleval.Observer
	cache   *tooleval.Cache
}

func newFakeExecutor() *fakeExecutor {
	return &fakeExecutor{done: map[tooleval.Cell]float64{}, cache: tooleval.NewCache()}
}

func (e *fakeExecutor) Memo(ctx context.Context, key tooleval.Cell, compute func() (tooleval.CellResult, error)) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.done[key]; ok {
		e.hits++
		if e.observe != nil {
			e.observe(ctx, key, true, nil)
		}
		return v, nil
	}
	res, err := compute()
	if err != nil {
		return 0, err
	}
	e.done[key] = res.Value
	e.misses++
	if e.observe != nil {
		e.observe(ctx, key, false, nil)
	}
	return res.Value, nil
}

func (e *fakeExecutor) Do(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	e.doCalls++
	e.mu.Unlock()
	return fn()
}

func (e *fakeExecutor) Map(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func (e *fakeExecutor) Workers() int { return 1 }
func (e *fakeExecutor) Stats() tooleval.CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return tooleval.CacheStats{Hits: e.hits, Misses: e.misses}
}
func (e *fakeExecutor) Cache() *tooleval.Cache       { return e.cache }
func (e *fakeExecutor) Observe(fn tooleval.Observer) { e.observe = fn }

func TestWithExecutorRoutesEverything(t *testing.T) {
	x := newFakeExecutor()
	var cells int
	sess := tooleval.NewSession(
		tooleval.WithExecutor(x),
		tooleval.WithEvents(func(ev tooleval.Event) { // serial backend: no mutex needed
			if _, ok := ev.(tooleval.CellEvent); ok {
				cells++
			}
		}),
	)
	ctx := context.Background()
	sizes := []int{0, 2 << 10}
	times, err := sess.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Results through the custom backend match the built-in pool's.
	reference, err := tooleval.NewSession().PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if times[i] != reference[i] {
			t.Fatalf("custom backend diverged: %v vs %v", times, reference)
		}
	}
	if hits, misses := sess.Stats(); misses != int64(len(sizes)) || hits != 0 {
		t.Fatalf("Stats through custom backend = %d hits / %d misses", hits, misses)
	}
	if cells != len(sizes) {
		t.Fatalf("events through custom backend: %d cells, want %d", cells, len(sizes))
	}
	// Replays hit the custom backend's memoization.
	if _, err := sess.PingPong(ctx, "sun-ethernet", "p4", sizes); err != nil {
		t.Fatal(err)
	}
	if hits, _ := sess.Stats(); hits != int64(len(sizes)) {
		t.Fatalf("custom backend hits = %d, want %d", hits, len(sizes))
	}
	// Direct runs route through the backend's Do.
	if _, err := sess.Run(ctx, "sun-ethernet", "p4", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if x.doCalls != 1 {
		t.Fatalf("Do calls = %d, want 1", x.doCalls)
	}
	// Quotas wrap custom executors too.
	limited := tooleval.NewSession(tooleval.WithExecutor(newFakeExecutor()), tooleval.WithMaxCells(1))
	if _, err := limited.PingPong(ctx, "sun-ethernet", "p4", sizes); !errors.Is(err, tooleval.ErrQuotaExceeded) {
		t.Fatalf("quota over custom executor = %v, want ErrQuotaExceeded", err)
	}
}

// TestWithExecutorAppliesCacheCapacity: a bound the caller set on a
// supplied executor's cache is the session's bound — NewSession keeps
// that cache, and a sweep through the session evicts down to it.
func TestWithExecutorAppliesCacheCapacity(t *testing.T) {
	x := runner.New(2)
	x.Cache().SetCapacity(2)
	sess := tooleval.NewSession(tooleval.WithExecutor(x))
	if got := sess.Cache().Capacity(); got != 2 {
		t.Fatalf("session cache capacity = %d, want the executor's 2", got)
	}
	sizes := []int{0, 1 << 10, 2 << 10, 4 << 10}
	if _, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", sizes); err != nil {
		t.Fatal(err)
	}
	if got := x.Cache().Len(); got != 2 {
		t.Fatalf("executor cache holds %d cells, want the capacity 2", got)
	}
}

// TestWithExecutorConflictsPanic: combining WithCache with
// WithExecutor is a configuration bug that must fail loudly at
// construction, not be silently ignored.
func TestWithExecutorConflictsPanic(t *testing.T) {
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: NewSession accepted a conflicting configuration", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "WithExecutor") {
				t.Fatalf("%s: panic %v does not name the conflict", name, r)
			}
		}()
		build()
	}
	mustPanic("WithCache+WithExecutor", func() {
		tooleval.NewSession(tooleval.WithExecutor(runner.New(1)), tooleval.WithCache(tooleval.NewCache()))
	})
}
