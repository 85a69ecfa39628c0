package apps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// maxReferences caps the reference table. Tenants of toolbenchd choose
// the scale, so the (app, scale) space is unbounded; past the cap a
// reference is computed for its caller and not kept.
const maxReferences = 32

// references holds the sequential reference of each (app, scale) that
// Verify has needed. A reference is a pure function of (app, scale) —
// not of procs, tool or platform — so every APL cell of one app at one
// scale is checked against the same one, computed once per process.
var references = newRefTable(maxReferences)

// refKey names one reference. The scale is keyed by its bits so that
// every float, NaN included, is a usable key.
type refKey struct {
	app   string
	scale uint64
}

// refEntry is one reference; done is closed once val/err are set.
type refEntry struct {
	done chan struct{}
	val  any
	err  error
}

// refTable is a bounded, single-flight table of references: concurrent
// callers for one key share a single computation. A failed computation
// is not kept, so the next caller retries it.
type refTable struct {
	mu      sync.Mutex
	entries map[refKey]*refEntry
	limit   int
	// computed counts reference computations started, for tests.
	computed atomic.Int64
}

func newRefTable(limit int) *refTable {
	return &refTable{entries: make(map[refKey]*refEntry), limit: limit}
}

// get returns the reference for key, computing it at most once while
// the table has room for it.
func (t *refTable) get(key refKey, compute func() (any, error)) (any, error) {
	t.mu.Lock()
	if e, ok := t.entries[key]; ok {
		t.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	if len(t.entries) >= t.limit {
		t.mu.Unlock()
		t.computed.Add(1)
		return compute()
	}
	e := &refEntry{done: make(chan struct{})}
	t.entries[key] = e
	t.mu.Unlock()
	t.computed.Add(1)

	kept := false
	defer func() {
		if !kept {
			// Also reached when compute panics (a worker daemon recovers
			// panicking cells and keeps serving): waiters get an error
			// instead of blocking forever, and the key is free to retry.
			if e.err == nil {
				e.err = fmt.Errorf("apps: %s reference computation did not finish", key.app)
			}
			t.mu.Lock()
			delete(t.entries, key)
			t.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = compute()
	kept = e.err == nil
	return e.val, e.err
}

// reference returns app's sequential reference at scale from table t,
// computing it with compute when t does not hold it.
func reference[T any](t *refTable, app string, scale float64, compute func() (T, error)) (T, error) {
	v, err := t.get(refKey{app: app, scale: math.Float64bits(scale)}, func() (any, error) {
		return compute()
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
