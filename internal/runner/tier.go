package runner

// Tier is a second-tier result store behind the in-memory Cache: the
// seam the durable disk store (internal/store) plugs into. On a cache
// miss the scheduler consults the tier before simulating, and writes
// every successfully computed cell back into it — so a tier shared
// across process restarts turns a sweep into an incremental build.
//
// The contract mirrors what makes memoization sound:
//
//   - Lookup must return exactly what an earlier Fill recorded for the
//     key (cells are deterministic, so any faithfully stored result is
//     the correct result). A tier that cannot answer — corruption, a
//     version mismatch, an IO error — reports a miss, never a wrong
//     value and never a panic: the cell is simply re-simulated.
//   - Fill is called only for successfully computed cells. Errors are
//     never written to a tier — deterministic failures stay memoized in
//     the memory tier for the life of the process, and context errors
//     are not cached anywhere (see Executor.Memo).
//   - Both methods must be safe for concurrent use. They are called
//     outside the cache's lock, from whichever goroutine
//     resolved the cell.
type Tier interface {
	// Lookup returns the stored result for key, if present.
	Lookup(key Key) (CellResult, bool)
	// Fill records a successfully computed cell. Implementations decide
	// their own durability and error handling; a failed write must
	// degrade to future misses, not corrupt earlier records.
	Fill(key Key, res CellResult)
}

// SetTier installs t as the cache's durable second tier: misses consult
// t before computing, and completed cells are written through to it.
// Install the tier before any cells are submitted. Installing a second
// tier panics — a cache wired to one store must not be silently
// re-pointed at another (two sessions configuring different stores over
// one shared cache is a configuration bug). SetTier(nil) detaches the
// current tier.
func (c *Cache) SetTier(t Tier) {
	if t == nil {
		c.tier.Store(nil)
		return
	}
	if !c.tier.CompareAndSwap(nil, &tierBox{t: t}) {
		panic("runner: cache already has a second-tier result store attached")
	}
}

// Tier returns the installed second tier, or nil.
func (c *Cache) Tier() Tier {
	if b := c.tier.Load(); b != nil {
		return b.t
	}
	return nil
}
