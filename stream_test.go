package tooleval_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tooleval"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/p4"
)

// gatedTool returns a factory that blocks tool construction until
// release is closed — a cell that provably cannot complete until the
// test says so.
func gatedTool(release <-chan struct{}) tooleval.Factory {
	return func(env *tooleval.Env) (mpt.Tool, error) {
		<-release
		return p4.New(env)
	}
}

// TestStreamEarlyDelivery is the acceptance test of the stream
// redesign: the consumer must observe result i while spec j > i is
// still provably incomplete (its tool factory is gated on a channel
// only the consumer closes).
func TestStreamEarlyDelivery(t *testing.T) {
	release := make(chan struct{})
	var gatedDone atomic.Bool
	sess := tooleval.NewSession(
		tooleval.WithParallelism(2),
		tooleval.WithTool("gated", gatedTool(release)),
		tooleval.WithEvents(func(ev tooleval.Event) {
			if sd, ok := ev.(tooleval.SpecDone); ok && sd.Index == 1 {
				gatedDone.Store(true)
			}
		}),
	)
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "gated", Sizes: []int{0}},
	}
	var seen []string
	for res, err := range sess.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, res.Spec.Tool)
		if res.Spec.Tool == "p4" {
			// Result 0 is in hand; spec 1 must still be in flight.
			if gatedDone.Load() {
				t.Fatal("spec 1 completed before result 0 was delivered — no early delivery")
			}
			close(release)
		}
	}
	if len(seen) != 2 || seen[0] != "p4" || seen[1] != "gated" {
		t.Fatalf("stream order = %v, want [p4 gated]", seen)
	}
	if !gatedDone.Load() {
		t.Fatal("spec 1 never reported SpecDone")
	}
}

// TestStreamOrderDespiteOutOfOrderCompletion: when spec 0 is the slow
// one, the stream must withhold spec 1's (already finished) result
// until spec 0's turn — delivery order is spec order, not completion
// order.
func TestStreamOrderDespiteOutOfOrderCompletion(t *testing.T) {
	release := make(chan struct{})
	spec1Done := make(chan struct{})
	sess := tooleval.NewSession(
		tooleval.WithParallelism(2),
		tooleval.WithTool("gated", gatedTool(release)),
		tooleval.WithEvents(func(ev tooleval.Event) {
			if sd, ok := ev.(tooleval.SpecDone); ok && sd.Index == 1 {
				close(spec1Done)
			}
		}),
	)
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "gated", Sizes: []int{0}},
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
	}
	go func() {
		<-spec1Done // spec 1 finishes first...
		close(release)
	}()
	var seen []string
	for res, err := range sess.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, res.Spec.Tool)
	}
	if len(seen) != 2 || seen[0] != "gated" || seen[1] != "p4" {
		t.Fatalf("stream order = %v, want [gated p4] (spec order)", seen)
	}
}

func TestSubmitAllReportsPerSpecOutcomes(t *testing.T) {
	sess := tooleval.NewSession()
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
		{Kind: tooleval.KindBroadcast, Platform: "sun-atm-wan", Tool: "express", Procs: 4, Sizes: []int{0}}, // no NYNET port
		{Kind: "frobnicate"}, // invalid
		{Kind: tooleval.KindRing, Platform: "sun-ethernet", Tool: "pvm", Procs: 4, Sizes: []int{2 << 10}},
	}
	results, errs := sess.SubmitAll(context.Background(), specs)
	if len(results) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("got %d results / %d errs, want %d each", len(results), len(errs), len(specs))
	}
	if errs[0] != nil || len(results[0].Times) != 2 {
		t.Fatalf("spec 0: %v, %v", results[0].Times, errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "no express port") {
		t.Fatalf("spec 1 error = %v, want port-matrix rejection", errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "spec 2") || !strings.Contains(errs[2].Error(), "frobnicate") {
		t.Fatalf("spec 2 error = %v, want indexed validation failure", errs[2])
	}
	if errs[3] != nil || len(results[3].Times) != 1 {
		t.Fatalf("spec 3 must run despite earlier failures: %v, %v", results[3].Times, errs[3])
	}
	// Submit on the same batch aborts at the first failure instead.
	if _, err := sess.Submit(context.Background(), specs); err == nil {
		t.Fatal("Submit must fail on a batch SubmitAll tolerates")
	}
}

// TestStreamCancellationMidBatch (run under -race in CI): cancelling
// after the first result makes the remaining specs yield ctx.Err()
// instead of simulating.
func TestStreamCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := tooleval.NewSession(tooleval.WithParallelism(2))
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		{Kind: tooleval.KindEvaluate, Scale: 0.05},
		{Kind: tooleval.KindEvaluate, Scale: 0.05, Profile: "developer"},
	}
	var outcomes []error
	for _, err := range sess.Stream(ctx, specs) {
		outcomes = append(outcomes, err)
		cancel()
	}
	if len(outcomes) != len(specs) {
		t.Fatalf("stream yielded %d outcomes, want %d", len(outcomes), len(specs))
	}
	if outcomes[0] != nil {
		t.Fatalf("spec 0 (completed before cancel) = %v", outcomes[0])
	}
	for i, err := range outcomes[1:] {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("spec %d after cancel = %v, want context.Canceled", i+1, err)
		}
	}
	// The big evaluations were aborted between cells, not simulated out.
	if _, misses := sess.Stats(); misses >= 100 {
		t.Fatalf("cancelled stream still simulated %d cells", misses)
	}
}

// TestSubmitCancellationMidBatch mirrors the stream test through the
// Submit surface (run under -race in CI).
func TestSubmitCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sess := tooleval.NewSession(
		tooleval.WithParallelism(2),
		tooleval.WithEvents(func(ev tooleval.Event) {
			if _, ok := ev.(tooleval.CellEvent); ok {
				once.Do(cancel)
			}
		}),
	)
	_, err := sess.Submit(ctx, []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
		{Kind: tooleval.KindEvaluate, Scale: 0.05},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit under mid-batch cancel = %v, want context.Canceled", err)
	}
}

// TestStreamEarlyBreakCancelsRemaining: abandoning the iterator must
// cancel the specs still in flight rather than simulating them out.
func TestStreamEarlyBreakCancelsRemaining(t *testing.T) {
	sess := tooleval.NewSession(tooleval.WithParallelism(1))
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		{Kind: tooleval.KindEvaluate, Scale: 0.05},
	}
	for _, err := range sess.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		break // abandon the evaluation spec
	}
	// The iterator waits for in-flight work before returning, so the
	// session is quiescent here and Stats is stable: the ~250-cell
	// evaluation must not have run, only the handful of cells that were
	// in flight at the break.
	if _, misses := sess.Stats(); misses >= 100 {
		t.Fatalf("abandoned stream simulated %d cells", misses)
	}
}

// TestStreamLifecycleEventsOnEveryPath pins the event contract the
// batch surface owes its sinks: exactly one SpecStart/SpecDone pair
// per submitted spec, on every path — specs that run, specs that fail
// validation, and specs that arrive after cancellation. (Invalid and
// cancelled specs used to skip both events, so sinks counting SpecDone
// against the batch size miscounted.)
func TestStreamLifecycleEventsOnEveryPath(t *testing.T) {
	newCounter := func() (*sync.Mutex, map[int]int, map[int]int, map[int]error, tooleval.Option) {
		var mu sync.Mutex
		starts := map[int]int{}
		dones := map[int]int{}
		doneErrs := map[int]error{}
		opt := tooleval.WithEvents(func(ev tooleval.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e := ev.(type) {
			case tooleval.SpecStart:
				starts[e.Index]++
			case tooleval.SpecDone:
				dones[e.Index]++
				doneErrs[e.Index] = e.Err
			}
		})
		return &mu, starts, dones, doneErrs, opt
	}
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		{Kind: "frobnicate"}, // fails validate()
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{0}},
	}
	assertPairs := func(t *testing.T, mu *sync.Mutex, starts, dones map[int]int, doneErrs map[int]error, errs []error) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for i := range specs {
			if starts[i] != 1 || dones[i] != 1 {
				t.Fatalf("spec %d: %d SpecStart / %d SpecDone, want exactly one pair", i, starts[i], dones[i])
			}
			if (doneErrs[i] == nil) != (errs[i] == nil) {
				t.Fatalf("spec %d: SpecDone.Err = %v, yielded err = %v", i, doneErrs[i], errs[i])
			}
		}
	}

	t.Run("invalid-spec", func(t *testing.T) {
		mu, starts, dones, doneErrs, opt := newCounter()
		sess := tooleval.NewSession(tooleval.WithParallelism(2), opt)
		_, errs := sess.SubmitAll(context.Background(), specs)
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "frobnicate") {
			t.Fatalf("spec 1 = %v, want the validation error", errs[1])
		}
		assertPairs(t, mu, starts, dones, doneErrs, errs)
	})

	t.Run("cancelled-before-start", func(t *testing.T) {
		mu, starts, dones, doneErrs, opt := newCounter()
		sess := tooleval.NewSession(tooleval.WithParallelism(2), opt)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, errs := sess.SubmitAll(ctx, specs)
		for i, err := range errs {
			if err == nil {
				t.Fatalf("spec %d under a cancelled ctx = nil error", i)
			}
		}
		if !errors.Is(errs[0], context.Canceled) {
			t.Fatalf("spec 0 = %v, want context.Canceled", errs[0])
		}
		assertPairs(t, mu, starts, dones, doneErrs, errs)
	})
}

func TestStreamEmitsSpecEvents(t *testing.T) {
	var mu sync.Mutex
	starts := map[int]bool{}
	dones := map[int]error{}
	sess := tooleval.NewSession(tooleval.WithEvents(func(ev tooleval.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case tooleval.SpecStart:
			starts[e.Index] = true
		case tooleval.SpecDone:
			dones[e.Index] = e.Err
		}
	}))
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		{Kind: tooleval.KindRing, Platform: "sun-atm-wan", Tool: "express", Procs: 4, Sizes: []int{0}}, // fails: no port
	}
	_, errs := sess.SubmitAll(context.Background(), specs)
	mu.Lock()
	defer mu.Unlock()
	if !starts[0] || !starts[1] {
		t.Fatalf("SpecStart events = %v, want both specs", starts)
	}
	if dones[0] != nil {
		t.Fatalf("SpecDone[0].Err = %v, want nil", dones[0])
	}
	if dones[1] == nil || errs[1] == nil || dones[1].Error() != errs[1].Error() {
		t.Fatalf("SpecDone[1].Err = %v, want the spec's error %v", dones[1], errs[1])
	}
}
