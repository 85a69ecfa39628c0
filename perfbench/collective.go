package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/paperdata"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
	"tooleval/internal/server"
)

// In the batch workloads a "job" is one spec of the batch, all
// submitted at once: job latency runs from submission to the spec's
// SpecDone, time to first event from submission to each cell's event,
// and max_jobs_per_s is specs completed per second of sweep.

// collectiveCold submits the seeded TPL batch to a fresh session per
// repetition. mpt, sim and simnet do all of its work and apps none, so
// it is the control for app-payload changes and the target for the
// collective path. Its traced run also sends the batch once through
// the remote executor, to measure the remote layer.
func collectiveCold(e *env) error {
	specs := collectiveBatch(e.seed)
	setup, err := setupProbe(15, 500, func() (func(), error) {
		s := tooleval.NewSession(tooleval.WithParallelism(e.slots))
		return func() { s.Close() }, nil
	})
	if err != nil {
		return err
	}
	e.e2e["setup_s"] = setup
	want, err := e.sweepReps(specs, func(traced bool) *tooleval.Session {
		if traced {
			x := &tracedExecutor{inner: runner.New(e.slots), tr: e.tr, memoName: "memo"}
			return tooleval.NewSession(tooleval.WithExecutor(x))
		}
		return tooleval.NewSession(tooleval.WithParallelism(e.slots))
	})
	if err != nil || !e.trace {
		return err
	}
	return e.remoteProbe(specs, want)
}

// remoteProbe runs the batch through the remote executor over two
// fresh in-process toolbench-worker handlers on loopback, one slot
// each (warm worker caches would hide the cold cost), traced, and
// checks its report against the local one. Its spans go to their own
// file, .bench_build/trace/<workload>-remote.jsonl, so they do not mix
// into the local repetitions' per-layer figures. The remote executor
// is latency-bound — two RPCs in flight over two connections — and on
// a shared virtual machine its wall time moved by up to 37% between
// runs, too much to bound; so it is measured here, per layer, and not
// as a workload of its own.
func (e *env) remoteProbe(specs []tooleval.ExperimentSpec, want []byte) error {
	f, err := startFleet(e)
	if err != nil {
		return err
	}
	out, _ := runBatch(e, f.sess, specs, true)
	f.stop()
	for _, err := range out.failed {
		e.check(err == nil, "remote spec: %v", err)
	}
	e.check(string(out.report) == string(want), "remote batch report differs from the local one")
	spans := e.tr.take()
	var rpcMs, workerMs []float64
	var bytes float64
	for _, s := range spans {
		switch s.Name {
		case "POST " + remote.CellsPath:
			rpcMs = append(rpcMs, ms(s.dur()))
			bytes += float64(s.Bytes)
		case "worker POST " + remote.CellsPath:
			workerMs = append(workerMs, ms(s.dur()))
		}
	}
	for _, n := range f.rem.NodeStats() {
		e.layer["remote.rpcs"] += float64(n.Sent)
		e.layer["remote.retried"] += float64(n.Retried)
	}
	e.layer["remote.rpc_ms_p50"] = median(rpcMs)
	e.layer["remote.worker_ms_p50"] = median(workerMs)
	e.layer["remote.bytes_per_rpc"] = ratio(bytes, float64(len(rpcMs)))
	e.layer["remote.sweep_over_local"] = ratio(out.wall.Seconds(), e.tracedWall.Seconds()/e.reps)
	e.layer["trace.self_s.remote"] = selfTimes(spans)["remote"].Seconds()
	header := map[string]string{"machine": machine(), "workload": e.workload + " via remote", "seed": fmt.Sprint(e.seed)}
	return writeSpans(filepath.Join(e.root, ".bench_build", "trace", e.workload+"-remote.jsonl"), header, spans)
}

// fleet is remoteProbe's serving state: the workers and the
// coordinator session over them, all traced.
type fleet struct {
	sess    *tooleval.Session
	rem     *remote.Remote
	servers []*http.Server
	done    []chan error
}

func startFleet(e *env) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < 2; i++ {
		x := &tracedExecutor{inner: runner.New(1), tr: e.tr, memoName: "worker-memo"}
		h := tracedHandler(e.tr, "remote", "worker", remote.NewWorker(x, bench.ComputeCell).Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		srv := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		f.done = append(f.done, done)
		addrs = append(addrs, ln.Addr().String())
	}
	// One connection per worker: nproc connections in all.
	rt := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, tr: e.tr, layer: "remote"}
	rem, err := remote.New(addrs, runner.New(e.slots), remote.WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rem = rem
	f.sess = tooleval.NewSession(tooleval.WithExecutor(&tracedExecutor{inner: rem, tr: e.tr, memoName: "memo"}))
	return f, nil
}

// stop shuts the workers down and waits for their serve loops to end.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, srv := range f.servers {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		<-f.done[i]
	}
}

// batchOutput is one submitted batch's measurements and bytes.
type batchOutput struct {
	wall   time.Duration
	ttfe   []float64 // ms per cell event, from submission
	jobs   []float64 // ms per spec, submission to SpecDone
	report []byte
	failed []error
}

// sweepReps runs the batch once per repetition on a session build
// returns, checks every repetition's report against the first one's
// (and the first against earlier runs of the seed in this checkout),
// fills the end-to-end metrics, and returns the report. With tracing
// on, repetitions alternate untraced and traced.
func (e *env) sweepReps(specs []tooleval.ExperimentSpec, build func(traced bool) *tooleval.Session) ([]byte, error) {
	var sweeps, traced, peaks, allocs []float64
	var lat repLatencies
	var results []tooleval.Result
	var want []byte
	err := e.repeat(2, func(i int) error {
		tr := e.trace && i%2 == 1
		sess := build(tr)
		mem := startMem()
		out, res := runBatch(e, sess, specs, tr)
		peak, alloc := mem.stop()
		if err := sess.Close(); err != nil {
			e.fail(err)
		}
		for _, err := range out.failed {
			e.check(err == nil, "spec: %v", err)
		}
		if want == nil {
			want, results = out.report, res
			e.checkLedger("collective", specs, map[string]string{"report": digest(out.report)})
		} else {
			e.check(string(out.report) == string(want), "repetition %d (traced=%v): batch report differs from the first", i, tr)
		}
		if tr {
			e.traced(out.wall)
			traced = append(traced, out.wall.Seconds())
			return nil
		}
		sweeps = append(sweeps, out.wall.Seconds())
		peaks = append(peaks, peak)
		allocs = append(allocs, alloc)
		lat.add(out.ttfe, out.jobs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t3, err := table3From(results)
	if err != nil {
		return nil, err
	}
	geo, worst := fidelity(t3)
	e.e2e["fidelity_geomean"], e.e2e["fidelity_worst"] = geo, worst
	e.e2e["sweep_s"] = median(sweeps)
	e.e2e["peak_rss_mb"] = median(peaks)
	e.e2e["alloc_mb"] = median(allocs)
	lat.report(e)
	e.e2e["max_jobs_per_s"] = float64(len(specs)) / median(sweeps)
	e.note("%d specs; %d untraced repetitions", len(specs), len(sweeps))
	if e.trace {
		e.layerFromSpans()
		e.layer["trace.overhead_ratio"] = ratio(median(traced), median(sweeps))
		if err := e.measureCodec(globalSumLens(specs)); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// runBatch submits specs with SubmitAll and times each cell event and
// each spec's completion from submission.
func runBatch(e *env, sess *tooleval.Session, specs []tooleval.ExperimentSpec, traced bool) (*batchOutput, []tooleval.Result) {
	ctx, cancel := withTimeout(context.Background())
	defer cancel()
	var mu sync.Mutex
	var cells []time.Time
	done := make([]time.Time, len(specs))
	spans := make([]Span, len(specs))
	var batch Span
	if traced {
		batch = Span{ID: e.tr.id(), Layer: "tooleval", Name: "batch", Start: e.tr.now()}
		batch.Trace = batch.ID
		ctx = withSpan(ctx, batch.ID, batch.Trace)
	}
	ctx = tooleval.EventContext(ctx, func(ev tooleval.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev := ev.(type) {
		case tooleval.CellEvent:
			cells = append(cells, now)
		case tooleval.SpecStart:
			if traced {
				spans[ev.Index] = Span{ID: e.tr.id(), Parent: batch.ID, Trace: batch.Trace, Layer: "tooleval", Name: "spec", Start: e.tr.now()}
			}
		case tooleval.SpecDone:
			done[ev.Index] = now
			if traced {
				spans[ev.Index].End = e.tr.now()
			}
		}
	})
	start := time.Now()
	results, errs := sess.SubmitAll(ctx, specs)
	out := &batchOutput{wall: time.Since(start), failed: errs}
	if traced {
		batch.End = e.tr.now()
		e.tr.add(batch)
		for _, s := range spans {
			e.tr.add(s)
		}
	}
	for _, t := range cells {
		out.ttfe = append(out.ttfe, ms(t.Sub(start)))
	}
	for _, t := range done {
		out.jobs = append(out.jobs, ms(t.Sub(start)))
	}
	report, err := server.MarshalBatchReport(results, errs)
	if err != nil {
		out.failed = append(out.failed, err)
	}
	out.report = report
	return out, results
}

// localReport is the batch report a local session gives for specs.
func localReport(sess *tooleval.Session, specs []tooleval.ExperimentSpec) ([]byte, error) {
	results, errs := sess.SubmitAll(context.Background(), specs)
	return server.MarshalBatchReport(results, errs)
}

// table3From rebuilds Table 3 from the batch's Table 3 specs, which
// table3Specs puts first.
func table3From(results []tooleval.Result) (*tooleval.Table3Result, error) {
	t3 := &tooleval.Table3Result{SizesBytes: bench.StandardSizes(), TimesMs: map[string]map[string][]float64{}}
	specs := table3Specs()
	if len(results) < len(specs) {
		return nil, errors.New("batch is missing the Table 3 specs")
	}
	for i, s := range specs {
		r := results[i]
		if r.Spec.Platform != s.Platform || r.Spec.Tool != s.Tool || len(r.Times) != len(s.Sizes) {
			return nil, fmt.Errorf("result %d is not Table 3's %s/%s", i, s.Platform, s.Tool)
		}
		net := networkOf(s.Platform)
		if t3.TimesMs[net] == nil {
			t3.TimesMs[net] = map[string][]float64{}
		}
		t3.TimesMs[net][s.Tool] = r.Times
	}
	return t3, nil
}

func networkOf(platformKey string) string {
	for net, key := range paperdata.Table3PlatformKey {
		if key == platformKey {
			return net
		}
	}
	return platformKey
}

// repLatencies keeps each repetition's latency medians. In a batch
// workload every job is submitted at once, so time to first event is
// taken per cell — submission to the cell's event, the first and only
// one for that cell — and job latency per spec (per experiment on
// paper-cold). Each median is reported as its median over the
// repetitions, so one disturbed repetition does not own the figure.
type repLatencies struct {
	ttfe50, job50 []float64
	ttfeN, jobN   int // samples per repetition
}

func (l *repLatencies) add(ttfe, jobs []float64) {
	l.ttfe50 = append(l.ttfe50, median(ttfe))
	l.job50 = append(l.job50, median(jobs))
	l.ttfeN, l.jobN = len(ttfe), len(jobs)
}

func (l *repLatencies) report(e *env) {
	e.e2e["ttfe_p50_ms"], e.e2e["job_p50_ms"] = median(l.ttfe50), median(l.job50)
	e.note("medians of %d cell events and %d jobs per repetition, median over %d repetitions",
		l.ttfeN, l.jobN, len(l.job50))
}
