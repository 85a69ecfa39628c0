package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tooleval"
)

// Server is the toolbenchd state: the shared cache (optionally
// backed by the durable store), the tenant registry, the job index,
// and the drain machinery. Build one with New, expose it with Handler
// (tests) or run it with ListenAndServe/Serve (the daemon).
type Server struct {
	cfg   Config
	cache *tooleval.Cache
	store *tooleval.ResultStore // nil without StoreDir
	mux   *http.ServeMux

	// tierMu guards the tier-catalog fields of cfg (Tiers, DefaultTier,
	// TenantTiers), which ReloadTiers swaps at runtime; everything else
	// in cfg is immutable after New.
	tierMu sync.RWMutex

	tenants *registry
	jobs    *jobStore
	started time.Time // for /statsz uptime

	// draining refuses new jobs and tenants while in-flight sweeps
	// finish; hardCtx is cancelled when the drain deadline passes, so
	// the sweeps still running abort instead of holding the process.
	draining   atomic.Bool
	hardCtx    context.Context
	hardCancel context.CancelFunc
	activeJobs sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server from cfg (normalized in place: defaults filled,
// tier wiring validated). With a StoreDir the durable result store is
// opened — recovered, if damaged — and attached behind the shared
// cache, so every tenant's misses consult disk and every simulated
// cell persists across restarts.
func New(cfg Config) (*Server, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	cache := tooleval.NewCache() // many tenants share one cache
	cache.SetCapacity(cfg.CacheCapacity)
	s := &Server{cfg: cfg, cache: cache, started: time.Now()}
	if cfg.StoreDir != "" {
		open := cfg.OpenStore
		if open == nil {
			open = tooleval.OpenResultStore
		}
		store, err := open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		cache.SetTier(store)
		s.store = store
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.tenants = newRegistry(s.buildTenant)
	s.jobs = newJobStore(cfg.MaxJobsRetained, cfg.EventBuffer)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s, nil
}

// buildTenant materializes a tenant under its configured quota tier:
// an isolated Session (own executor and budgets) memoizing into the
// server's shared cache. gen stamps which tier-catalog generation the
// tenant was built under; a later ReloadTiers makes it stale.
func (s *Server) buildTenant(id string, gen int64) *tenant {
	s.tierMu.RLock()
	tier := s.cfg.tierFor(id)
	s.tierMu.RUnlock()
	opts := []tooleval.Option{tooleval.WithCache(s.cache)}
	if s.cfg.Parallelism > 0 {
		opts = append(opts, tooleval.WithParallelism(s.cfg.Parallelism))
	}
	if tier.MaxCells > 0 {
		opts = append(opts, tooleval.WithMaxCells(int(tier.MaxCells)))
	}
	if tier.MaxVirtualTime > 0 {
		opts = append(opts, tooleval.WithMaxVirtualTime(tier.MaxVirtualTime))
	}
	t := &tenant{id: id, tier: tier, gen: gen, sess: tooleval.NewSession(opts...)}
	if tier.MaxConcurrentJobs > 0 {
		t.jobSlots = make(chan struct{}, tier.MaxConcurrentJobs)
	}
	s.logf("toolbenchd: tenant %q admitted (tier %q)", id, tier.Name)
	return t
}

// ReloadTiers swaps the quota-tier catalog at runtime (the SIGHUP
// path in cmd/toolbenchd). The new catalog is validated first — a bad
// reload is rejected whole, keeping the old config live. In-flight
// jobs are untouched: existing tenants are marked stale and each is
// rebuilt under its new tier at its next admission with no jobs
// active, so a session is never closed or re-budgeted mid-sweep.
func (s *Server) ReloadTiers(tiers map[string]QuotaTier, defaultTier string, tenantTiers map[string]string) error {
	if defaultTier != "" {
		if _, ok := tiers[defaultTier]; !ok {
			return fmt.Errorf("server: reload: default tier %q is not in the tier catalog", defaultTier)
		}
	}
	for tenant, tier := range tenantTiers {
		if _, ok := tiers[tier]; !ok {
			return fmt.Errorf("server: reload: tenant %q maps to unknown tier %q", tenant, tier)
		}
	}
	s.tierMu.Lock()
	s.cfg.Tiers = tiers
	s.cfg.DefaultTier = defaultTier
	s.cfg.TenantTiers = tenantTiers
	s.tierMu.Unlock()
	// Bumping after the swap means a tenant built in between is stamped
	// stale and rebuilt once more — harmless; the catalog it read is
	// already the new one.
	s.tenants.bumpGen()
	s.logf("toolbenchd: tier catalog reloaded (%d tiers, default %q, %d tenant mappings)",
		len(tiers), defaultTier, len(tenantTiers))
	return nil
}

// Handler returns the server's HTTP surface (for httptest and for
// embedding under an outer mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the shared cell cache (stats and test introspection).
func (s *Server) Cache() *tooleval.Cache { return s.cache }

// Store exposes the durable tier, nil without one.
func (s *Server) Store() *tooleval.ResultStore { return s.store }

// ListenAndServe listens on cfg.Addr and runs until ctx is cancelled,
// then drains: see Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.logf("toolbenchd: listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}

// Serve accepts connections on ln until ctx is cancelled (the SIGTERM
// path in cmd/toolbenchd), then drains gracefully: stop admitting
// jobs, let in-flight sweeps and their streams finish, and — if the
// drain deadline passes first — cancel the stragglers' contexts and
// force-close their connections. Either way the tenant sessions are
// closed and the durable store is flushed before Serve returns; the
// error is nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed out from under us; release what we own.
		s.Close()
		return err
	case <-ctx.Done():
	}
	return s.drain(srv)
}

// drain is the SIGTERM half of Serve, deadline-bounded by
// cfg.DrainTimeout.
func (s *Server) drain(srv *http.Server) error {
	s.draining.Store(true)
	s.logf("toolbenchd: draining (timeout %v)", s.cfg.DrainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	if err != nil {
		// Deadline passed with sweeps still running: abort their
		// contexts — cells in flight finish, nothing half-done is
		// cached — and force-close the connections.
		s.logf("toolbenchd: drain deadline passed, aborting in-flight jobs")
		s.hardCancel()
		srv.Close()
	} else {
		s.logf("toolbenchd: in-flight jobs finished")
	}
	s.activeJobs.Wait()
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Close releases what the server owns — tenant sessions, then the
// durable store (synced so every persisted cell survives the exit).
// Idempotent and safe to call concurrently with itself; callers still
// streaming jobs should drain first (Serve does).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.hardCancel()
		err := s.tenants.closeAll()
		if s.store != nil {
			if serr := s.store.Close(); err == nil {
				err = serr
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
