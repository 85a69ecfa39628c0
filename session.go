package tooleval

import (
	"context"
	"fmt"
	"sync"

	"tooleval/internal/bench"
	"tooleval/internal/core"
	"tooleval/internal/mpt"
	"tooleval/internal/platform"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

// Cache is a shareable store of memoized simulation cells. Every cell
// is a pure function of its content key (platform, tool, benchmark,
// procs, size/scale), so two sessions pointing WithCache at the same
// Cache pool their results: a cell simulated by one is a cache hit for
// the other. The hit/miss counters travel with the cache.
//
// Sessions sharing a Cache must agree on what every tool name means:
// two sessions registering different factories under the same custom
// name would memoize conflicting results under equal keys.
type Cache = runner.Cache

// NewCache returns an empty cell cache for use with WithCache.
func NewCache() *Cache { return runner.NewCache() }

// Cell identifies one memoized simulation cell — one entry of the
// paper's evaluation matrix.
type Cell = runner.Key

// CellEvent reports one resolved simulation cell to the session's
// event sinks ([WithEvents], [EventContext]). Cached is true when the
// cell was served from the session's memoization cache (or coalesced
// onto an in-flight computation) instead of being simulated by this
// call.
type CellEvent struct {
	Cell   Cell
	Cached bool
	Err    error
}

// Session is one self-contained evaluation instance: it owns its
// execution backend (an [Executor] — by default a worker pool with a
// parallelism bound and a memoization cache), its statistics, its tool
// registry, and its event sinks. Sessions are safe for concurrent use,
// and distinct sessions are fully isolated from one another — two
// tenants in one process can evaluate concurrently with different
// parallelism, budgets, and backends without sharing or clobbering any
// state.
//
// All methods take a Context first. Cancellation and deadlines are
// observed between simulation cells: a sweep aborts promptly with
// ctx.Err(), while the cell in flight (milliseconds of virtual-time
// simulation) always runs to completion.
//
// Because virtual time makes every cell deterministic, a Session's
// results are bit-identical at any parallelism.
type Session struct {
	h           *bench.Harness
	parallelism int
	sinks       []func(Event)
	store       *store.Store   // owned durable tier (WithResultStore), nil otherwise
	remote      *remote.Remote // distributed backend (WithRemoteExecutor), nil otherwise
	closeOnce   sync.Once
	closeErr    error
}

type sessionConfig struct {
	parallelism int
	cache       *Cache
	tools       map[string]Factory
	sinks       []func(Event)
	executor    Executor
	limits      runner.Limits
	storeDir    string
	workers     []string // worker daemon addresses (WithRemoteExecutor)
}

// Option configures a Session under construction.
type Option func(*sessionConfig)

// WithParallelism bounds how many independent simulations the session
// runs at once (n < 1 selects GOMAXPROCS, the default). n == 1
// reproduces the strictly serial sweep order; results are identical at
// any value.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.parallelism = n }
}

// WithCache makes the session memoize into the given shared cache
// instead of a fresh private one. See Cache for the sharing contract.
func WithCache(cache *Cache) Option {
	return func(c *sessionConfig) {
		if cache != nil {
			c.cache = cache
		}
	}
}

// WithTool registers a user-supplied tool implementation under name,
// resolvable by every Session method that takes a tool name — the
// methodology's second objective, serving as "a unified platform for
// PDC tool developers". Custom tools are considered ported to every
// platform (they are designs under evaluation, not 1995 artifacts with
// a fixed port matrix) and shadow a built-in of the same name.
func WithTool(name string, factory Factory) Option {
	return func(c *sessionConfig) {
		if c.tools == nil {
			c.tools = make(map[string]Factory)
		}
		c.tools[name] = factory
	}
}

// WithTools registers every factory in reg; see WithTool.
func WithTools(reg map[string]Factory) Option {
	return func(c *sessionConfig) {
		for name, factory := range reg {
			if c.tools == nil {
				c.tools = make(map[string]Factory)
			}
			c.tools[name] = factory
		}
	}
}

// NewSession builds an isolated evaluation session. With no options it
// uses GOMAXPROCS parallelism, a fresh private unbounded cache, the
// built-in tool registry (p4, pvm, express), no budgets, and no event
// sinks.
//
// NewSession panics on genuinely conflicting option combinations —
// [WithCache] alongside [WithExecutor], for one — rather than silently
// dropping one of them.
func NewSession(opts ...Option) *Session {
	var cfg sessionConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	x := cfg.executor
	if x != nil {
		// The executor was built by the caller, cache included: a second
		// cache cannot be installed after the fact, so combining the two
		// options is a configuration bug, not a preference to drop.
		if cfg.cache != nil {
			panic("tooleval: WithCache conflicts with WithExecutor — the executor owns its cache; build the executor over the shared cache instead")
		}
		if len(cfg.workers) > 0 {
			panic("tooleval: WithRemoteExecutor conflicts with WithExecutor — they both pick the execution backend")
		}
		if cfg.storeDir != "" {
			panic("tooleval: WithResultStore conflicts with WithExecutor — the executor owns its cache; open the store with OpenResultStore and attach it to the executor's cache via SetTier instead")
		}
	} else {
		x = runner.New(cfg.parallelism, runner.WithCache(cfg.cache))
	}
	if len(cfg.workers) > 0 && len(cfg.tools) > 0 {
		// A custom factory exists only in this process's registry; a
		// worker daemon handed the key alone cannot reconstruct it, so a
		// remote sweep would deterministically fail every custom-tool
		// cell. Refuse the configuration up front instead.
		panic("tooleval: WithRemoteExecutor conflicts with WithTool — custom tool factories cannot be evaluated on remote workers")
	}
	var durable *store.Store
	if cfg.storeDir != "" {
		var err error
		durable, err = store.Open(cfg.storeDir, sim.EngineVersion)
		if err != nil {
			panic(fmt.Sprintf("tooleval: WithResultStore(%q): %v", cfg.storeDir, err))
		}
		// SetTier panics if the cache (possibly shared via WithCache)
		// already carries a tier — release the file first so the panic
		// does not leak the handle.
		if x.Cache().Tier() != nil {
			durable.Close()
			panic("tooleval: WithResultStore — the session's cache already has a result store attached; attach the store to the shared cache once instead")
		}
		x.Cache().SetTier(durable)
	}
	x = runner.NewQuota(x, cfg.limits)
	// The remote layer goes on the outside, so its dispatch closure runs
	// through the quota wrapper underneath: budgets are checked and
	// charged on the coordinator (with the virtual cost the worker
	// reports), exactly as for a local sweep. Cache, durable tier, and
	// observer likewise all live in the inner executor — the workers only
	// ever see cell keys.
	var rem *remote.Remote
	if len(cfg.workers) > 0 {
		var err error
		rem, err = remote.New(cfg.workers, x)
		if err != nil {
			if durable != nil {
				durable.Close()
			}
			panic(fmt.Sprintf("tooleval: WithRemoteExecutor: %v", err))
		}
		x = rem
	}
	var custom map[string]mpt.Factory
	if len(cfg.tools) > 0 {
		custom = make(map[string]mpt.Factory, len(cfg.tools))
		for name, factory := range cfg.tools {
			custom[name] = factory
		}
	}
	s := &Session{
		h:           bench.NewHarnessWithTools(x, custom),
		parallelism: x.Workers(),
		sinks:       cfg.sinks,
		store:       durable,
		remote:      rem,
	}
	// The observer and hooks are always installed: even with no
	// WithEvents sinks, a caller may attach a per-batch sink to a
	// context with [EventContext], and those events ride the ctx the
	// work was scheduled under. emit is a no-op when neither exists.
	x.Observe(func(ctx context.Context, key runner.Key, cached bool, err error) {
		s.emit(ctx, CellEvent{Cell: key, Cached: cached, Err: err})
	})
	s.h.SetHooks(bench.Hooks{
		PhaseStart: func(ctx context.Context, id string) { s.emit(ctx, PhaseStart{Phase: id}) },
		PhaseDone:  func(ctx context.Context, id string, err error) { s.emit(ctx, PhaseDone{Phase: id, Err: err}) },
	})
	return s
}

// emit fans an event out to every session sink, plus the per-batch
// sink riding ctx (see [EventContext]), if any.
func (s *Session) emit(ctx context.Context, ev Event) {
	for _, fn := range s.sinks {
		fn(ev)
	}
	if fn := sinkFrom(ctx); fn != nil {
		fn(ev)
	}
}

// Parallelism reports the session's simulation concurrency bound.
func (s *Session) Parallelism() int { return s.parallelism }

// Close releases resources the session owns — today, the durable
// result store opened by [WithResultStore]: it syncs and closes the
// segment file and returns the first write error the store hit (a
// latched Fill error means some cells were simulated but not
// persisted; results were still correct). Sessions without a store
// return nil. The session remains usable for evaluation after Close —
// it just stops persisting new cells.
//
// Close is idempotent and safe for concurrent callers: the store is
// closed exactly once, and every call — first, repeated, or racing —
// returns that close's error. A server evicting a tenant while a
// drain sweep closes every session must not double-close the store.
func (s *Session) Close() error {
	if s.store == nil {
		return nil
	}
	s.closeOnce.Do(func() { s.closeErr = s.store.Close() })
	return s.closeErr
}

// Err reports the first write error the session's durable result store
// has latched, without closing anything — nil when the store is
// healthy or the session has none. A non-nil Err means the store went
// lookup-only mid-run: results are still correct, but cells simulated
// since the error are not being persisted. Long-running servers poll
// it to report a degraded store (e.g. a /healthz endpoint) instead of
// discovering the error only at [Session.Close].
func (s *Session) Err() error {
	if s.store == nil {
		return nil
	}
	return s.store.Err()
}

// ResultStore returns the durable tier opened by [WithResultStore],
// or nil.
func (s *Session) ResultStore() *ResultStore { return s.store }

// Executor returns the session's execution backend: the quota-wrapped
// view of the built-in pool or of the [WithExecutor] replacement —
// what Stats and every session method schedule through.
func (s *Session) Executor() Executor { return s.h.Executor() }

// Stats reports the session's memoization counters: cells served from
// cache (hits) and cells actually simulated (misses). With WithCache
// the counters are those of the shared cache.
func (s *Session) Stats() (hits, misses int64) {
	st := s.h.Executor().Stats()
	return st.Hits, st.Misses
}

// Cache returns the session's memoization cache (shared or private),
// for handing to another session via WithCache.
func (s *Session) Cache() *Cache { return s.h.Executor().Cache() }

// NodeStats reports the per-worker coordinator counters of a
// [WithRemoteExecutor] session — RPCs sent, completed, retried onto
// this node after another failed, breaker ejections, and the current
// admission state — in configuration order. Sessions without a remote
// backend return nil.
func (s *Session) NodeStats() []RemoteNodeStats {
	if s.remote == nil {
		return nil
	}
	return s.remote.NodeStats()
}

// Tools lists every tool name this session resolves: the built-ins,
// then custom registrations in sorted order.
func (s *Session) Tools() []string { return s.h.ToolNames() }

// resolvePlatform looks up a platform and, when tool is non-empty,
// checks the session's port matrix.
func (s *Session) resolvePlatform(platformKey, tool string) (platform.Platform, error) {
	pf, err := platform.Get(platformKey)
	if err != nil {
		return pf, err
	}
	if tool != "" && !s.h.Supports(pf, tool) {
		return pf, fmt.Errorf("tooleval: %s has no %s port (paper §3.1)", pf.Name, tool)
	}
	return pf, nil
}

// Run executes body as an SPMD program under the named tool (built-in
// or registered via WithTool) on the named platform. All timing in the
// result is deterministic virtual time. The run occupies one slot of
// the session's parallelism bound; ctx is observed while waiting for a
// slot.
func (s *Session) Run(ctx context.Context, platformKey, tool string, cfg RunConfig, body func(*Ctx) (any, error)) (*RunResult, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	factory, err := s.h.FactoryFor(tool)
	if err != nil {
		return nil, err
	}
	var res *RunResult
	err = s.h.Executor().Do(ctx, func() error {
		var err error
		res, err = mpt.Run(pf, factory, cfg, body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PingPong measures the send/receive round trip (Table 3's benchmark)
// and returns milliseconds per message size.
func (s *Session) PingPong(ctx context.Context, platformKey, tool string, sizes []int) ([]float64, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	return s.h.PingPong(ctx, pf, tool, sizes)
}

// Broadcast measures the collective broadcast (Figure 2's benchmark).
func (s *Session) Broadcast(ctx context.Context, platformKey, tool string, procs int, sizes []int) ([]float64, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	return s.h.Broadcast(ctx, pf, tool, procs, sizes)
}

// Ring measures the ring/loop benchmark (Figure 3).
func (s *Session) Ring(ctx context.Context, platformKey, tool string, procs int, sizes []int) ([]float64, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	return s.h.Ring(ctx, pf, tool, procs, sizes)
}

// GlobalSum measures the integer-vector global summation (Figure 4).
func (s *Session) GlobalSum(ctx context.Context, platformKey, tool string, procs int, vectorLens []int) ([]float64, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	return s.h.GlobalSum(ctx, pf, tool, procs, vectorLens)
}

// RunApp executes a suite application ("jpeg", "fft2d", "montecarlo",
// "psrs") over a processor sweep and returns its execution-time curve.
// scale shrinks the paper-scale workload (1.0 reproduces the paper).
func (s *Session) RunApp(ctx context.Context, platformKey, tool, app string, procsList []int, scale float64) (AppMeasurement, error) {
	// Through resolvePlatform like every other tool-taking method, so
	// the §3.1 port gate applies uniformly at the session layer.
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return AppMeasurement{}, err
	}
	series, err := s.h.RunAPL(ctx, pf, tool, app, procsList, scale)
	if err != nil {
		return AppMeasurement{}, err
	}
	return AppMeasurement{Platform: series.Platform, App: series.App, Tool: series.Tool, Procs: series.Procs, Seconds: series.Seconds}, nil
}

// Evaluate runs the complete multi-level methodology: it regenerates
// the TPL measurements (Table 3 and Figures 2-4), the APL measurements
// on the SUN/Ethernet platform at the given workload scale, combines
// them with the paper's ADL matrix, and returns the weighted
// evaluation. Cells already computed in this session — by an earlier
// Evaluate or by the benchmark methods — are served from the
// memoization cache instead of re-simulated.
func (s *Session) Evaluate(ctx context.Context, profile WeightProfile, scale float64) (*Evaluation, error) {
	return s.h.Evaluate(ctx, profile, scale)
}

// Table3 regenerates the snd/recv timing table over the three SUN
// networks.
func (s *Session) Table3(ctx context.Context) (*Table3Result, error) {
	return s.h.Table3(ctx)
}

// Fig2 regenerates the broadcast figure at the given rank count (the
// paper uses 4).
func (s *Session) Fig2(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig2(ctx, procs)
}

// Fig3 regenerates the ring figure.
func (s *Session) Fig3(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig3(ctx, procs)
}

// Fig4 regenerates the global summation figure.
func (s *Session) Fig4(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig4(ctx, procs)
}

// Table4 regenerates the primitive-ranking table from Table 3 and
// Figures 2-4 (all four fan out concurrently within the session's
// parallelism bound).
func (s *Session) Table4(ctx context.Context, procs int) ([]PrimitiveRanking, error) {
	return s.h.Table4(ctx, procs)
}

// APLFigure regenerates one of Figures 5-8 ("fig5".."fig8"): the four
// suite applications on that figure's platform across its tool set and
// processor sweep.
func (s *Session) APLFigure(ctx context.Context, figID string, scale float64) (*FigureResult, []AppMeasurement, error) {
	return s.h.APLFigure(ctx, figID, scale)
}

// TraceRun executes a small ping-pong under the named tool with the
// engine execution trace enabled and returns the formatted event log
// (the ADL debugging-support criterion). The run occupies one slot of
// the session's parallelism bound.
func (s *Session) TraceRun(ctx context.Context, platformKey, tool string, size, maxEvents int) ([]string, error) {
	pf, err := s.resolvePlatform(platformKey, tool)
	if err != nil {
		return nil, err
	}
	var events []string
	err = s.h.Executor().Do(ctx, func() error {
		var err error
		events, err = s.h.TraceRun(pf, tool, size, maxEvents)
		return err
	})
	return events, err
}

// ProfileByName looks up a built-in weight profile ("end-user",
// "developer", "system-manager").
func ProfileByName(name string) (WeightProfile, error) {
	for _, p := range core.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return WeightProfile{}, fmt.Errorf("tooleval: unknown profile %q", name)
}
