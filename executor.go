package tooleval

import (
	"time"

	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// Executor is the session's execution backend: the scheduler every
// simulation cell, direct run, and fan-out goes through. The built-in
// implementation (selected by default, configured with
// [WithParallelism] and [WithCache]) is an in-process bounded worker
// pool over a memoization [Cache]; [WithExecutor] swaps in another
// implementation — a remote fleet, a test double — without the
// Session layer changing.
//
// See the method contracts on the interface definition. The invariants
// an implementation must keep are: Memo is single-flight per [Cell]
// key and never caches context errors; Map reports the lowest-index
// error among the indices that ran; and Observe is called at most
// once, before any work is submitted.
type Executor = runner.Executor

// CellResult is what one simulated cell reports to its Executor: the
// measured value plus the virtual wall-clock the simulation covered
// (the currency of [WithMaxVirtualTime] budgets).
type CellResult = runner.CellResult

// Observer is an Executor's per-cell completion callback; see
// [Executor]'s Observe method.
type Observer = runner.Observer

// CacheStats snapshots a cache's memoization counters; see
// [Session.Stats].
type CacheStats = runner.Stats

// ErrQuotaExceeded is the sentinel a session's exhausted resource
// budget unwraps to; match it with errors.Is. The concrete error is
// always a [*QuotaError].
var ErrQuotaExceeded = runner.ErrQuotaExceeded

// QuotaError reports which session budget broke and by how much.
type QuotaError = runner.QuotaError

// WithExecutor makes the session schedule through x instead of the
// built-in worker pool. The executor owns parallelism, so
// [WithParallelism] is ignored when this option is present, and
// combining [WithCache] with this option makes NewSession panic — it
// would silently contradict the executor the caller already built. To
// bound the executor's cache, call SetCapacity on it. Quota options
// still apply — budgets wrap any executor.
//
// An Executor instance must be dedicated to one session: NewSession
// installs the session's cell observer on it, so handing the same
// instance to a second session would cross-wire their event streams.
// To pool results across sessions, share a [Cache], not an Executor.
func WithExecutor(x Executor) Option {
	return func(c *sessionConfig) { c.executor = x }
}

// WithRemoteExecutor distributes the session's sweep across worker
// daemons (`toolbench-worker`) at the given addresses ("host:port" or
// http:// URLs). Each cell is routed to a worker by rendezvous-hashing
// its content key — the same FNV hash the durable store records per
// cell — and the worker recomputes it from the key alone; cells are
// pure functions of their keys, so a distributed sweep is
// byte-identical to a local one. Memoization, the optional
// [WithResultStore] tier, quota budgets, and event observers all stay
// on the coordinator; [WithParallelism] bounds the in-flight RPCs.
//
// Worker loss is survived mid-sweep: a failing node's cells fail over
// to the next node in their rendezvous order, and after a few
// consecutive failures the node is ejected (a timed half-open probe
// re-admits it once it recovers). [Session.NodeStats] reports the
// per-node counters. A coordinator/worker engine- or protocol-version
// mismatch fails the sweep with a [*RemoteVersionError] — never a
// result computed under the wrong engine.
//
// Combining this option with [WithExecutor] or [WithTool] makes
// NewSession panic (custom tool factories exist only in this process
// and cannot be evaluated remotely).
func WithRemoteExecutor(nodes ...string) Option {
	return func(c *sessionConfig) {
		c.workers = append([]string(nil), nodes...)
	}
}

// RemoteNodeStats is one worker's coordinator-side counter snapshot;
// see [Session.NodeStats].
type RemoteNodeStats = remote.NodeStats

// RemoteVersionError is the typed refusal a [WithRemoteExecutor] sweep
// fails with when a worker runs a different simulation-engine or
// wire-protocol version; match it with errors.As.
type RemoteVersionError = remote.VersionError

// WithMaxCells caps how many cells the session may simulate. Cache
// hits are free: only simulations actually executed are charged — each
// miss, and each direct run ([Session.Run], [Session.TraceRun]) — so
// a session replaying memoized results is not billed for them. Once
// the budget is spent, every further cell — hit or miss — fails with a
// [*QuotaError] matching [ErrQuotaExceeded]. Budgets are checked
// before a cell is scheduled, so the session can overshoot by at most
// its parallelism bound (cells already in flight complete and are
// charged). n <= 0 means unlimited.
//
// Quota errors are never memoized: a shared [Cache] is not poisoned by
// one tenant's exhausted budget.
func WithMaxCells(n int) Option {
	return func(c *sessionConfig) { c.limits.MaxCells = int64(n) }
}

// WithMaxVirtualTime caps the summed virtual wall-clock of the cells
// the session simulates — the discrete-event analogue of a CPU-seconds
// budget. Charging and breach semantics match [WithMaxCells], except
// that direct runs charge only the cell budget (they carry no
// virtual-time report through the executor). d <= 0 means unlimited.
func WithMaxVirtualTime(d time.Duration) Option {
	return func(c *sessionConfig) { c.limits.MaxVirtualTime = d }
}
