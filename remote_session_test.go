package tooleval_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// startBenchWorker spins up a real worker daemon surface — the same
// handler cmd/toolbench-worker serves — computing genuine simulation
// cells through bench.ComputeCell.
func startBenchWorker(t *testing.T, opts ...remote.WorkerOption) *httptest.Server {
	t.Helper()
	w := remote.NewWorker(runner.New(4), bench.ComputeCell, opts...)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteSessionMatchesLocal is the session-level location
// transparency check: the same figure swept locally and through
// WithRemoteExecutor over live workers produces identical numbers, and
// the per-node counters account for every computed cell.
func TestRemoteSessionMatchesLocal(t *testing.T) {
	ctx := context.Background()
	local := tooleval.NewSession(tooleval.WithParallelism(2))
	defer local.Close()
	want, err := local.Fig2(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startBenchWorker(t), startBenchWorker(t)
	rem := tooleval.NewSession(
		tooleval.WithParallelism(4),
		tooleval.WithRemoteExecutor(w1.URL, w2.URL),
	)
	defer rem.Close()
	got, err := rem.Fig2(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("remote Fig2 differs from local:\nlocal:  %+v\nremote: %+v", want, got)
	}

	stats := rem.NodeStats()
	if len(stats) != 2 {
		t.Fatalf("NodeStats() = %d nodes, want 2", len(stats))
	}
	var completed int64
	for _, ns := range stats {
		if ns.State != "ok" {
			t.Fatalf("node %s state %q, want ok", ns.Node, ns.State)
		}
		completed += ns.Completed
	}
	_, misses := rem.Stats()
	if completed != misses {
		t.Fatalf("nodes completed %d RPCs, cache recorded %d misses — every miss should be exactly one RPC", completed, misses)
	}
	if local.NodeStats() != nil {
		t.Fatal("local session reports NodeStats, want nil")
	}
}

// TestRemoteSessionVersionMismatch: a session sweeping against a
// version-skewed worker fails with the typed refusal.
func TestRemoteSessionVersionMismatch(t *testing.T) {
	skewed := startBenchWorker(t, remote.WithWorkerEngine(999))
	sess := tooleval.NewSession(tooleval.WithRemoteExecutor(skewed.URL))
	defer sess.Close()
	_, err := sess.Fig2(context.Background(), 16)
	var ve *tooleval.RemoteVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Fig2 against skewed worker = %v, want *RemoteVersionError", err)
	}
	if ve.WorkerEngine != 999 {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// The remote backend refuses option combinations it cannot honor.
func TestWithRemoteExecutorConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []tooleval.Option
	}{
		{"with executor", []tooleval.Option{
			tooleval.WithExecutor(runner.New(2)),
			tooleval.WithRemoteExecutor("localhost:1"),
		}},
		{"with custom tool", []tooleval.Option{
			tooleval.WithTool("mine", nil),
			tooleval.WithRemoteExecutor("localhost:1"),
		}},
		{"blank node", []tooleval.Option{
			tooleval.WithRemoteExecutor(""),
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSession(%s) did not panic", tt.name)
				}
			}()
			tooleval.NewSession(tt.opts...)
		})
	}
}
