package apps

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/psrs"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// freshReferences gives the test its own reference table, so counts
// and sizes are the test's alone.
func freshReferences(t *testing.T, limit int) *refTable {
	t.Helper()
	old := references
	references = newRefTable(limit)
	t.Cleanup(func() { references = old })
	return references
}

func tableSize(t *refTable) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// runCell runs app at procs 4 and scale on p4 over alpha-fddi and
// returns rank 0's result.
func runCell(t *testing.T, app App, scale float64) any {
	t.Helper()
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
		return app.Run(c, scale)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func mustGet(t *testing.T, name string) App {
	t.Helper()
	app, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestReferenceComputedOncePerAppAndScale(t *testing.T) {
	const scale = 0.1
	table := freshReferences(t, maxReferences)
	var wg sync.WaitGroup
	errs := make(chan error, 2*16)
	for _, name := range []string{"psrs", "jpeg"} {
		app := mustGet(t, name)
		v := runCell(t, app, scale)
		for range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- app.Verify(v, 4, scale)
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := table.computed.Load(); got != 2 {
		t.Fatalf("computed %d references for 2 (app, scale) pairs, want 2", got)
	}
}

func TestWarmReferenceStillRejectsCorruptResults(t *testing.T) {
	const scale = 0.1
	freshReferences(t, maxReferences)

	ps := mustGet(t, "psrs")
	good := runCell(t, ps, scale).(*psrs.Result)
	if err := ps.Verify(good, 4, scale); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(r *psrs.Result){
		"multiset": func(r *psrs.Result) { r.MultisetSum ^= 1 },
		"count":    func(r *psrs.Result) { r.Count++ },
		"min":      func(r *psrs.Result) { r.Min-- },
	} {
		bad := *good
		corrupt(&bad)
		if err := ps.Verify(&bad, 4, scale); err == nil {
			t.Errorf("psrs: corrupted %s accepted against a warm reference", name)
		}
	}

	jp := mustGet(t, "jpeg")
	jgood := runCell(t, jp, scale).(*jpeg.Result)
	if err := jp.Verify(jgood, 4, scale); err != nil {
		t.Fatal(err)
	}
	for band := range jgood.Bands {
		bad := *jgood
		bad.Bands = make([][]byte, len(jgood.Bands))
		for i, b := range jgood.Bands {
			bad.Bands[i] = bytes.Clone(b)
		}
		last := len(bad.Bands[band]) - 1
		bad.Bands[band][last] ^= 0x01
		if err := jp.Verify(&bad, 4, scale); err == nil {
			t.Errorf("jpeg: band %d with a flipped bit accepted against a warm reference", band)
		}
	}
	if err := jp.Verify(jgood, 4, scale); err != nil {
		t.Fatalf("jpeg: the uncorrupted result no longer verifies: %v", err)
	}
}

func TestReferenceTableBounded(t *testing.T) {
	table := freshReferences(t, maxReferences)
	ps := mustGet(t, "psrs")
	const extra = 8
	for i := range maxReferences + extra {
		// Every one of these scales floors at the 64-record minimum, so
		// each reference is cheap but the keys are distinct.
		scale := 1e-6 * float64(i+1)
		seq, err := psrs.Sequential(psrs.DefaultConfig().Scaled(scale))
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Verify(seq, 1, scale); err != nil {
			t.Fatal(err)
		}
		if n := tableSize(table); n > maxReferences {
			t.Fatalf("table grew to %d entries, cap %d", n, maxReferences)
		}
	}
	if n := tableSize(table); n != maxReferences {
		t.Fatalf("table holds %d entries, want the cap %d", n, maxReferences)
	}
	if got := table.computed.Load(); got != maxReferences+extra {
		t.Fatalf("computed %d references, want %d", got, maxReferences+extra)
	}
}

func TestReferenceFailureIsNotKept(t *testing.T) {
	table := newRefTable(4)
	key := refKey{app: "x"}
	boom := errors.New("boom")
	if _, err := table.get(key, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = table.get(key, func() (any, error) { panic("compute panicked") })
	}()
	v, err := table.get(key, func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after failures: got (%v, %v), want (7, nil)", v, err)
	}
	if got := table.computed.Load(); got != 3 {
		t.Fatalf("computed %d times, want 3", got)
	}
	if n := tableSize(table); n != 1 {
		t.Fatalf("table holds %d entries, want 1", n)
	}
}
