package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tooleval/internal/runner"
	"tooleval/internal/sim"
)

var bg = context.Background()

// fakeCompute is a deterministic pure function of the key — the same
// role bench.ComputeCell plays in the daemon, cheap enough for tests.
func fakeCompute(key runner.Key) (runner.CellResult, error) {
	if key.Bench == "explode" {
		return runner.CellResult{}, fmt.Errorf("cell %s: deterministic failure", key)
	}
	v := float64(key.Hash()%1000)/7.0 + float64(key.Procs)*0.5 + key.Scale
	return runner.CellResult{Value: v, Virtual: time.Duration(key.Hash()%5000) * time.Microsecond}, nil
}

// countingCompute wraps fakeCompute recording how many times each key
// was computed, across however many workers share it.
type countingCompute struct {
	mu     sync.Mutex
	counts map[runner.Key]int
}

func newCountingCompute() *countingCompute {
	return &countingCompute{counts: make(map[runner.Key]int)}
}

func (c *countingCompute) compute(key runner.Key) (runner.CellResult, error) {
	c.mu.Lock()
	c.counts[key]++
	c.mu.Unlock()
	return fakeCompute(key)
}

// startWorker spins up an httptest worker daemon; the cleanup closes
// it. Extra WorkerOptions pass through (version-skew tests).
func startWorker(t *testing.T, compute ComputeFunc, opts ...WorkerOption) *httptest.Server {
	t.Helper()
	w := NewWorker(runner.New(4), compute, opts...)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func testKeys(n int) []runner.Key {
	keys := make([]runner.Key, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, runner.Key{
			Platform: "ncube2",
			Tool:     "tool" + string(rune('a'+i%3)),
			Bench:    "pingpong",
			Procs:    1 + i%8,
			Size:     64 << (i % 5),
			Scale:    1.0,
		})
	}
	return keys
}

// TestRemoteMatchesLocal is the location-transparency contract: a
// sweep dispatched through Remote over live workers returns exactly
// the values the compute function returns locally, and the
// coordinator-side cache/observer/single-flight behave as if the
// compute had run in-process.
func TestRemoteMatchesLocal(t *testing.T) {
	ws := []*httptest.Server{
		startWorker(t, fakeCompute),
		startWorker(t, fakeCompute),
		startWorker(t, fakeCompute),
	}
	nodes := make([]string, len(ws))
	for i, ts := range ws {
		nodes[i] = ts.URL
	}
	r, err := New(nodes, runner.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	r.Observe(func(_ context.Context, _ runner.Key, cached bool, _ error) {
		if !cached {
			observed.Add(1)
		}
	})

	keys := testKeys(40)
	for _, key := range keys {
		want, _ := fakeCompute(key)
		got, err := r.Memo(bg, key, nil)
		if err != nil {
			t.Fatalf("Memo(%s): %v", key, err)
		}
		if got != want.Value {
			t.Fatalf("Memo(%s) = %v, want %v (remote result differs from local)", key, got, want.Value)
		}
	}
	// Second pass: all warm, no extra RPCs.
	sentBefore := totalSent(r)
	for _, key := range keys {
		if _, err := r.Memo(bg, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := totalSent(r); got != sentBefore {
		t.Fatalf("warm pass issued %d extra RPCs, want 0", got-sentBefore)
	}
	st := r.Stats()
	if st.Misses != int64(len(keys)) || st.Hits != int64(len(keys)) {
		t.Fatalf("cache stats = %+v, want %d misses and %d hits", st, len(keys), len(keys))
	}
	if observed.Load() != int64(len(keys)) {
		t.Fatalf("observer fired %d times, want %d (once per computed cell)", observed.Load(), len(keys))
	}
}

func totalSent(r *Remote) int64 {
	var n int64
	for _, ns := range r.NodeStats() {
		n += ns.Sent
	}
	return n
}

// A deterministic cell error comes back as an error, is memoized, and
// does not fail over: exactly one RPC, exactly one compute.
func TestRemoteDeterministicCellError(t *testing.T) {
	cc := newCountingCompute()
	ws := []*httptest.Server{startWorker(t, cc.compute), startWorker(t, cc.compute)}
	r, err := New([]string{ws[0].URL, ws[1].URL}, runner.New(4))
	if err != nil {
		t.Fatal(err)
	}
	key := runner.Key{Platform: "ncube2", Tool: "toola", Bench: "explode", Procs: 2, Size: 64}
	for i := 0; i < 3; i++ {
		_, err := r.Memo(bg, key, nil)
		if err == nil || !strings.Contains(err.Error(), "deterministic failure") {
			t.Fatalf("Memo #%d error = %v, want the cell's own failure", i, err)
		}
	}
	if got := cc.counts[key]; got != 1 {
		t.Fatalf("cell computed %d times, want 1 (error must memoize, not fail over)", got)
	}
	if got := totalSent(r); got != 1 {
		t.Fatalf("sent %d RPCs, want 1", got)
	}
}

// TestRemoteVirtualTime checks the virtual-time cost rides the wire —
// including on a warm worker cache hit, where the worker reconstructs
// it from its cache rather than from a fresh compute.
func TestRemoteVirtualTime(t *testing.T) {
	ts := startWorker(t, fakeCompute)
	key := testKeys(1)[0]
	want, _ := fakeCompute(key)
	for i := 0; i < 2; i++ {
		// A fresh coordinator each round: round 2 hits only the worker's
		// cache, not the coordinator's.
		r, err := New([]string{ts.URL}, runner.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Memo(bg, key, nil); err != nil {
			t.Fatal(err)
		}
		// The coordinator cache must have absorbed the wire-reported cost.
		res, ok := r.Cache().Lookup(key)
		if !ok {
			t.Fatalf("round %d: coordinator cache has no completed entry", i)
		}
		if res.Virtual != want.Virtual {
			t.Fatalf("round %d: virtual = %v, want %v", i, res.Virtual, want.Virtual)
		}
	}
}

// TestVersionMismatchRefusal pins the hard typed refusal: a worker on
// a different engine version answers with a 409 the coordinator turns
// into a *VersionError — no result, no failover, no breaker penalty.
func TestVersionMismatchRefusal(t *testing.T) {
	cc := newCountingCompute()
	skewed := startWorker(t, cc.compute, WithWorkerEngine(sim.EngineVersion+1))
	r, err := New([]string{skewed.URL}, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}
	key := testKeys(1)[0]
	_, err = r.Memo(bg, key, nil)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Memo error = %v, want *VersionError", err)
	}
	if ve.WorkerEngine != sim.EngineVersion+1 || ve.CoordinatorEngine != sim.EngineVersion {
		t.Fatalf("VersionError stamps = %+v", ve)
	}
	if ve.Node != skewed.URL {
		t.Fatalf("VersionError.Node = %q, want %q", ve.Node, skewed.URL)
	}
	if len(cc.counts) != 0 {
		t.Fatal("skewed worker computed a cell; refusal must precede compute")
	}
	if st := r.NodeStats()[0]; st.State != "ok" || st.Ejected != 0 {
		t.Fatalf("node state after refusal = %+v, want ok/unejected (refusing is not failing)", st)
	}
	// The refusal is a deterministic outcome: memoized, not retried.
	if _, err2 := r.Memo(bg, key, nil); !errors.As(err2, &ve) {
		t.Fatalf("second Memo error = %v, want memoized *VersionError", err2)
	}
	if got := totalSent(r); got != 1 {
		t.Fatalf("sent %d RPCs, want 1 (refusal memoizes)", got)
	}
}

// TestWorkerRejectsBadRequests covers the worker's non-compute paths.
func TestWorkerRejectsBadRequests(t *testing.T) {
	ts := startWorker(t, fakeCompute)
	// GET on the cells path.
	resp, err := http.Get(ts.URL + CellsPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET %s = %d, want 405", CellsPath, resp.StatusCode)
	}
	// Garbage body.
	resp, err = http.Post(ts.URL+CellsPath, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage POST = %d, want 400", resp.StatusCode)
	}
	// Health.
	resp, err = http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", HealthPath, resp.StatusCode)
	}
}

// TestNewValidation pins constructor errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil, runner.New(1)); err == nil {
		t.Fatal("New with no nodes succeeded")
	}
	if _, err := New([]string{"a:1", "a:1"}, runner.New(1)); err == nil {
		t.Fatal("New with duplicate nodes succeeded")
	}
	if _, err := New([]string{"a:1", "  "}, runner.New(1)); err == nil {
		t.Fatal("New with a blank node succeeded")
	}
	r, err := New([]string{"a:1", "http://b:2/"}, runner.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); got[0] != "a:1" || got[1] != "http://b:2/" {
		t.Fatalf("Nodes() = %v", got)
	}
}

// owners maps every key to its top-ranked node name under r.
func owners(r *Remote, keys []runner.Key) map[runner.Key]string {
	out := make(map[runner.Key]string, len(keys))
	for _, k := range keys {
		out[k] = r.rank(k)[0].name
	}
	return out
}

// TestRendezvousMinimalMovement pins the consistent-hash property the
// failover design rests on: removing a node moves only that node's
// keys (each to its runner-up), and adding a node steals only the keys
// the new node wins — every other assignment is untouched.
func TestRendezvousMinimalMovement(t *testing.T) {
	inner := func() runner.Executor { return runner.New(1) }
	all := []string{"worker-a:1", "worker-b:2", "worker-c:3", "worker-d:4"}
	rAll, err := New(all, inner())
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(400)
	before := owners(rAll, keys)

	// Sanity: the load spreads — no node owns everything or nothing.
	byNode := map[string]int{}
	for _, n := range before {
		byNode[n]++
	}
	for _, n := range all {
		if byNode[n] == 0 || byNode[n] == len(keys) {
			t.Fatalf("degenerate spread %v", byNode)
		}
	}

	// Leave: drop worker-c. Only its keys may move.
	without := []string{"worker-a:1", "worker-b:2", "worker-d:4"}
	rLess, err := New(without, inner())
	if err != nil {
		t.Fatal(err)
	}
	after := owners(rLess, keys)
	for _, k := range keys {
		if before[k] != "worker-c:3" {
			if after[k] != before[k] {
				t.Fatalf("key %s moved %s -> %s though its node survived", k, before[k], after[k])
			}
			continue
		}
		// Orphaned keys land on their rendezvous runner-up.
		if want := rAll.rank(k)[1].name; after[k] != want {
			t.Fatalf("orphaned key %s landed on %s, want runner-up %s", k, after[k], want)
		}
	}

	// Join: re-adding worker-c must exactly restore the original map —
	// the keys it steals back are precisely the ones it owned.
	rBack, err := New(all, inner())
	if err != nil {
		t.Fatal(err)
	}
	restored := owners(rBack, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %s: %s after re-join, want %s", k, restored[k], before[k])
		}
	}
}

// flakyProxy fronts a worker and, once killed, refuses every cell RPC
// with a 503 — the shape of a daemon dying mid-sweep (from the
// coordinator's view a connection error and a 5xx classify the same:
// node fault, retryable).
type flakyProxy struct {
	backend http.Handler
	killed  atomic.Bool
	after   atomic.Int64 // kill switch: die after this many cell RPCs (0 = only explicit kill)
	served  atomic.Int64
}

func (p *flakyProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == CellsPath {
		n := p.served.Add(1)
		if a := p.after.Load(); a > 0 && n > a {
			p.killed.Store(true)
		}
		if p.killed.Load() {
			http.Error(rw, "worker killed by test", http.StatusServiceUnavailable)
			return
		}
	}
	p.backend.ServeHTTP(rw, r)
}

// TestChaosWorkerLoss is the worker-loss property test: a seeded kill
// switch takes one worker down mid-sweep, and every cell must still be
// computed exactly once on a surviving worker, with values identical
// to a no-failure run.
func TestChaosWorkerLoss(t *testing.T) {
	const (
		threshold = 2 // consecutive failures that eject a node
		slots     = 8 // concurrent cell RPCs (the coordinator's pool)
	)
	for _, seed := range []int64{1, 3, 7, 13} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cc := newCountingCompute()
			// Three workers; the one behind the proxy dies after `seed`
			// cell RPCs.
			proxy := &flakyProxy{backend: NewWorker(runner.New(4), cc.compute).Handler()}
			proxy.after.Store(seed)
			doomed := httptest.NewServer(proxy)
			defer doomed.Close()
			s1 := startWorker(t, cc.compute)
			s2 := startWorker(t, cc.compute)

			r, err := New([]string{doomed.URL, s1.URL, s2.URL}, runner.New(slots),
				WithNodeBreaker(threshold, time.Hour, time.Hour)) // ejected stays ejected for the test's lifetime
			if err != nil {
				t.Fatal(err)
			}
			// Rendezvous hashes the node URLs, which carry httptest's
			// ephemeral ports, so the doomed node's share of a fixed key
			// set varies from run to run. Choose the keys so that it is
			// always ejected: after its `seed` good RPCs, up to slots-1
			// of them may still be in flight, and each one's success
			// resets the consecutive-failure count. It takes
			// slots*(threshold-1)+1 failures to eject it whatever the
			// interleaving.
			need := int(seed) + slots*(threshold-1) + 1
			// testKeys repeats after lcm(3, 8, 5) = 120 keys; a second
			// scale doubles the pool of distinct keys.
			pool := testKeys(120)
			for _, k := range pool[:120] {
				k.Scale = 0.5
				pool = append(pool, k)
			}
			own := owners(r, pool)
			var mine, rest []runner.Key
			for _, k := range pool {
				if own[k] == doomed.URL {
					mine = append(mine, k)
				} else {
					rest = append(rest, k)
				}
			}
			if len(mine) < need {
				t.Fatalf("doomed node owns %d of %d pool keys, need %d", len(mine), len(pool), need)
			}
			// 60 keys: the doomed node's natural share, topped up to need.
			n := max(len(mine)*60/len(pool), need)
			keys := append(mine[:n:n], rest[:60-n]...)
			var wg sync.WaitGroup
			errs := make([]error, len(keys))
			vals := make([]float64, len(keys))
			for i, key := range keys {
				wg.Add(1)
				go func(i int, key runner.Key) {
					defer wg.Done()
					vals[i], errs[i] = r.Memo(bg, key, nil)
				}(i, key)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("cell %s failed despite survivors: %v", keys[i], err)
				}
			}
			for i, key := range keys {
				want, _ := fakeCompute(key)
				if vals[i] != want.Value {
					t.Fatalf("cell %s = %v, want %v", key, vals[i], want.Value)
				}
				if got := cc.counts[key]; got != 1 {
					t.Fatalf("cell %s computed %d times, want exactly once", key, got)
				}
			}
			if !proxy.killed.Load() {
				t.Fatal("kill switch never fired; the chaos run degenerated to a clean one")
			}
			// The doomed node's ejection is visible in the stats.
			var sawEjected bool
			for _, ns := range r.NodeStats() {
				if ns.Node == doomed.URL {
					sawEjected = ns.Ejected >= 1
				}
			}
			if !sawEjected {
				t.Fatalf("doomed node never ejected: %+v", r.NodeStats())
			}
		})
	}
}

// TestAllWorkersDown: when every node is dead the sweep fails with a
// wrapped node error instead of hanging, and nothing is memoized as a
// value.
func TestAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	r, err := New([]string{dead.URL}, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}
	key := testKeys(1)[0]
	if _, err := r.Memo(bg, key, nil); err == nil || !strings.Contains(err.Error(), "every worker") {
		t.Fatalf("Memo with all nodes down = %v, want every-worker failure", err)
	}
}

// TestBreakerEjectionAndProbe drives the per-node breaker through its
// cycle with a fake clock: consecutive failures eject, RPCs are
// refused during the backoff window, the window's end admits a single
// probe, and a successful probe re-admits the node.
func TestBreakerEjectionAndProbe(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	cc := newCountingCompute()
	backend := NewWorker(runner.New(2), cc.compute).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if failing.Load() && r.URL.Path == CellsPath {
			http.Error(rw, "injected fault", http.StatusInternalServerError)
			return
		}
		backend.ServeHTTP(rw, r)
	}))
	defer ts.Close()

	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	r, err := New([]string{ts.URL}, runner.New(2),
		WithClock(now), WithNodeBreaker(3, 100*time.Millisecond, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	keys := testKeys(5)
	// Three failing cells trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := r.Memo(bg, keys[i], nil); err == nil {
			t.Fatalf("cell %d against failing node succeeded", i)
		}
	}
	if st := r.NodeStats()[0]; st.State != "ejected" || st.Ejected != 1 {
		t.Fatalf("after threshold failures: %+v, want ejected once", st)
	}

	// Inside the backoff window nothing is admitted — not even an RPC.
	sent := totalSent(r)
	if _, err := r.Memo(bg, keys[3], nil); err == nil {
		t.Fatal("cell against ejected node succeeded")
	}
	if got := totalSent(r); got != sent {
		t.Fatalf("ejected node received %d RPCs, want 0", got-sent)
	}

	// Past the window the node heals; the probe succeeds and re-admits.
	failing.Store(false)
	clock = clock.Add(150 * time.Millisecond)
	if st := r.NodeStats()[0]; st.State != "probing" {
		t.Fatalf("after backoff elapsed: state %q, want probing", st.State)
	}
	if _, err := r.Memo(bg, keys[4], nil); err != nil {
		t.Fatalf("probe cell failed after node healed: %v", err)
	}
	if st := r.NodeStats()[0]; st.State != "ok" {
		t.Fatalf("after successful probe: %+v, want ok", st)
	}
	// Healed node serves normally again.
	if _, err := r.Memo(bg, testKeys(9)[8], nil); err != nil {
		t.Fatalf("post-recovery cell: %v", err)
	}
}

// A failed probe doubles the backoff instead of resetting it.
func TestBreakerProbeFailureBacksOff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "still down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	clock := time.Unix(1000, 0)
	r, err := New([]string{ts.URL}, runner.New(1),
		WithClock(func() time.Time { return clock }),
		WithNodeBreaker(1, 100*time.Millisecond, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(3)
	if _, err := r.Memo(bg, keys[0], nil); err == nil {
		t.Fatal("dead node succeeded")
	}
	// First probe at +100ms fails -> backoff doubles to 200ms.
	clock = clock.Add(100 * time.Millisecond)
	if _, err := r.Memo(bg, keys[1], nil); err == nil {
		t.Fatal("probe against dead node succeeded")
	}
	clock = clock.Add(150 * time.Millisecond) // 150 < 200: still closed to RPCs
	sent := totalSent(r)
	if _, err := r.Memo(bg, keys[2], nil); err == nil {
		t.Fatal("cell inside doubled backoff succeeded")
	}
	if got := totalSent(r); got != sent {
		t.Fatalf("node inside doubled backoff received %d RPCs, want 0", got-sent)
	}
}

// Context cancellation surfaces the caller's error and is never
// memoized: a later call with a live context computes normally.
func TestRemoteContextCancellation(t *testing.T) {
	ts := startWorker(t, fakeCompute)
	r, err := New([]string{ts.URL}, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	key := testKeys(1)[0]
	if _, err := r.Memo(ctx, key, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Memo under cancelled ctx = %v, want context.Canceled", err)
	}
	if st := r.NodeStats()[0]; st.Ejected != 0 {
		t.Fatalf("cancellation penalized the node: %+v", st)
	}
	want, _ := fakeCompute(key)
	got, err := r.Memo(bg, key, nil)
	if err != nil || got != want.Value {
		t.Fatalf("Memo after cancellation = %v, %v; want %v, nil (ctx errors must not cache)", got, err, want.Value)
	}
}

// TestWorkerStatsz pins the daemon's observability surface: engine and
// protocol versions, uptime under the injected clock, worker count,
// and cache counters that move with traffic.
func TestWorkerStatsz(t *testing.T) {
	clock := time.Unix(5000, 0)
	w := NewWorker(runner.New(3), fakeCompute, WithWorkerClock(func() time.Time { return clock }))
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	clock = clock.Add(90 * time.Second)

	r, err := New([]string{ts.URL}, runner.New(2))
	if err != nil {
		t.Fatal(err)
	}
	key := testKeys(1)[0]
	for i := 0; i < 2; i++ {
		// Fresh coordinator per round so round 2 re-asks the worker.
		r2, _ := New([]string{ts.URL}, runner.New(2))
		if _, err := r2.Memo(bg, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = r

	resp, err := http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st workerStats
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.EngineVersion != sim.EngineVersion || st.ProtocolVersion != ProtocolVersion {
		t.Fatalf("statsz versions = %+v", st)
	}
	if st.UptimeSeconds != 90 {
		t.Fatalf("statsz uptime = %v, want 90", st.UptimeSeconds)
	}
	if st.Workers != 3 {
		t.Fatalf("statsz workers = %d, want 3", st.Workers)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("statsz cache = %+v, want 1 miss + 1 hit", st.Cache)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}
