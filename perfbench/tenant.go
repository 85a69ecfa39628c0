package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tooleval"
	"tooleval/internal/runner"
	"tooleval/internal/server"
	"tooleval/internal/store"
)

// Tenant-service load: open-loop repetitions at a fixed rate, with jobs
// timed from when they were due, each untraced one followed by a
// saturation repetition for capacity. The repository holds no record
// of toolbenchd traffic, so the fixed rate and the job mix (specs.go)
// are assumptions. The rate is low against the capacity measured here
// (about 1,000 to 1,800 jobs/s on a 2-core host), so the fixed-rate
// phase times jobs on a server that is rarely busy; capacity is
// measured apart from it.
const (
	fixedRate      = 100.0 // jobs/s of the fixed-rate phase
	fixedSeconds   = 4.0   // length of one fixed-rate repetition
	saturationJobs = 2000  // jobs of one saturation repetition
	setupSamples   = 15    // server starts timed per run, at least
	maxInFlight    = 512   // jobs the generator keeps open at once
)

// tenantService runs toolbenchd on loopback with one shared cache and a
// server-owned store. Every repetition starts the server over an
// identical copy of a store pre-filled with the hot set, as a restarted
// daemon does, and drives it with SSE job submissions from nproc
// tenants (one simulation slot each) over nproc connections.
//
// sweep_s is the CPU time the process (server and load generator) uses
// in one fixed-rate repetition: the phase's wall time is set by its
// schedule, its CPU time by the program. Time to first event runs from
// a job's due time to its first cell event, job latency to its verified
// report bytes. max_jobs_per_s is the rate of verified completions when
// every job is due at once and maxInFlight are kept open.
func tenantService(e *env) error {
	ctx := context.Background()
	hot := hotSet(e.seed)
	golden := filepath.Join(e.work, "golden")
	if err := prefill(ctx, golden, hot, e.slots); err != nil {
		return err
	}
	seg, err := os.Stat(filepath.Join(golden, store.SegmentName))
	if err != nil {
		return err
	}

	fixed := jobSchedule(e.seed, 0, hot, e.slots, int(fixedRate*fixedSeconds), fixedRate)
	// The Table 3 specs ride the first hot-only jobs, so fidelity is
	// measured on what the server returned.
	var t3Jobs []int
	for i := 0; len(t3Jobs) < len(table3Specs()); i++ {
		if !fixed[i].fresh {
			fixed[i].specs[0] = table3Specs()[len(t3Jobs)]
			t3Jobs = append(t3Jobs, i)
		}
	}
	// References: each job's batch on a local session, untimed.
	refSess := tooleval.NewSession(tooleval.WithParallelism(e.slots))
	reference := func(jobs []loadJob) ([][]byte, error) {
		out := make([][]byte, len(jobs))
		for i, j := range jobs {
			b, err := localReport(refSess, j.specs)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	fixedWant, err := reference(fixed)
	if err != nil {
		return err
	}

	var setups, openS []float64
	var dropped, storeCells float64
	startSrv := func(traced bool) (*daemon, error) {
		d, err := startDaemon(e, golden, traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		openS = append(openS, d.open.Seconds())
		storeCells = float64(d.cells)
		return d, nil
	}
	stopSrv := func(d *daemon) {
		dropped += float64(d.srv.Store().Health().Dropped)
		if err := d.stop(); err != nil {
			e.fail(err)
		}
	}
	for len(setups) < setupSamples {
		d, err := startSrv(false)
		if err != nil {
			return err
		}
		stopSrv(d)
	}

	// Capacity: verified completions per second of wall time with every
	// job due at once, so the server is never idle. A saturation
	// repetition follows each untraced fixed-rate one, so both sample the
	// whole window. Each starts a fresh server over the golden store, so
	// its fresh cells are computed again.
	satJobs := jobSchedule(e.seed, 1, hot, e.slots, saturationJobs, math.Inf(1))
	satWant, err := reference(satJobs)
	if err != nil {
		return err
	}
	var rates []float64
	saturate := func() error {
		d, err := startSrv(false)
		if err != nil {
			return err
		}
		st := e.drive(d, satJobs, satWant, nil, false)
		stopSrv(d)
		rates = append(rates, float64(len(st.job))/st.wall.Seconds())
		e.note("saturation: %d of %d jobs verified in %.3f s, p99 %.1f ms", len(st.job), len(satJobs), st.wall.Seconds(), quantile(st.job, 0.99))
		return nil
	}

	var sweeps, peaks, allocs []float64
	var untracedP50, tracedP50 []float64
	var all, tracedStats loadStats
	var hits, misses float64
	err = e.repeat(2, func(i int) error {
		traced := e.trace && i%2 == 1
		d, err := startSrv(traced)
		if err != nil {
			return err
		}
		mem := startMem()
		cpu0 := cpuSeconds()
		st := e.drive(d, fixed, fixedWant, t3Jobs, traced)
		cpu := cpuSeconds() - cpu0
		peak, alloc := mem.stop()
		cs := d.srv.Cache().Stats()
		stopSrv(d)
		if traced {
			e.traced(st.wall)
			tracedStats.merge(st)
			tracedP50 = append(tracedP50, quantile(st.job, 0.5))
			hits += float64(cs.Hits)
			misses += float64(cs.Misses)
			return nil
		}
		all.merge(st)
		untracedP50 = append(untracedP50, quantile(st.job, 0.5))
		sweeps = append(sweeps, cpu)
		peaks = append(peaks, peak)
		allocs = append(allocs, alloc)
		return saturate()
	})
	if err != nil {
		return err
	}

	t3, err := table3From(all.table3)
	if err != nil {
		return err
	}
	geo, worst := fidelity(t3)
	e.e2e["fidelity_geomean"], e.e2e["fidelity_worst"] = geo, worst
	e.e2e["setup_s"] = median(setups)
	e.e2e["sweep_s"] = median(sweeps)
	e.e2e["peak_rss_mb"] = median(peaks)
	e.e2e["alloc_mb"] = median(allocs)
	e.e2e["ttfe_p50_ms"], e.e2e["job_p50_ms"] = median(all.ttfe), median(all.job)
	e.e2e["max_jobs_per_s"] = median(rates)
	e.note("%d untraced repetitions of %d jobs at %g jobs/s; %d time-to-first-event and %d job samples; %d saturation repetitions of %d jobs; %d server starts timed",
		len(sweeps), len(fixed), fixedRate, len(all.ttfe), len(all.job), len(rates), len(satJobs), len(setups))
	e.note("cached share of cells served: %.4f", ratio(all.cached, all.cells))

	if e.trace {
		s := tracedStats
		reps := e.reps
		e.layer["trace.overhead_ratio"] = ratio(median(tracedP50), median(untracedP50))
		e.layer["tooleval.spec_ms_p50"] = median(s.spec)
		e.layer["runner.cells_computed"] = ratio(misses, reps)
		e.layer["runner.cells_cached"] = ratio(hits, reps)
		e.layer["runner.hit_ratio"] = ratio(hits, hits+misses)
		e.layer["store.open_s"] = median(openS)
		e.layer["store.cells"] = storeCells
		e.layer["store.segment_bytes"] = float64(seg.Size())
		e.layer["store.dropped_fills"] = dropped
		e.layer["server.admit_ms_p50"] = median(s.admit)
		e.layer["server.event_gap_ms_p50"] = median(s.gap)
		e.layer["server.report_fetch_ms_p50"] = median(s.fetch)
		e.layer["server.events_per_job"] = ratio(s.events, float64(len(s.job)))
		e.layer["server.bytes_per_job"] = ratio(s.bytes, float64(len(s.job)))
		e.layer["server.cell_cached_ratio"] = ratio(s.cached, s.cells)
		e.layer["loadgen.lateness_ms_p99"] = quantile(s.lateness, 0.99)
		// The tails, over the untraced repetitions: on a shared virtual
		// machine they moved by up to 84% between runs, too much to bound.
		e.layer["loadgen.ttfe_p99_ms"] = quantile(all.ttfe, 0.99)
		e.layer["loadgen.job_p99_ms"] = quantile(all.job, 0.99)
		if err := e.measureReferences(0.05); err != nil {
			return err
		}
		if err := e.measureCodec(globalSumLens(hot)); err != nil {
			return err
		}
	}
	return nil
}

// prefill computes the hot set into a fresh store at dir, through a
// cache the store is attached to as its durable tier.
func prefill(ctx context.Context, dir string, hot []tooleval.ExperimentSpec, slots int) error {
	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		return err
	}
	x := runner.New(slots)
	x.Cache().SetTier(st)
	_, errs := tooleval.NewSession(tooleval.WithExecutor(x)).SubmitAll(ctx, hot)
	for _, err := range errs {
		if err != nil {
			st.Close()
			return fmt.Errorf("pre-filling the hot set: %w", err)
		}
	}
	return st.Close()
}

// daemon is one started toolbenchd.
type daemon struct {
	srv    *server.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	setup  time.Duration // server.New with store open, listen, first healthy answer
	open   time.Duration // the store open alone
	cells  int           // cells the opened store holds
}

// startDaemon copies the golden store and starts a server over the
// copy; only the start itself is timed.
func startDaemon(e *env, golden string, traced bool) (*daemon, error) {
	dir, err := os.MkdirTemp(e.work, "store-")
	if err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(filepath.Join(golden, store.SegmentName))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, store.SegmentName), blob, 0o644); err != nil {
		return nil, err
	}
	d := &daemon{done: make(chan error, 1)}
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: e.slots, MaxIdleConnsPerHost: e.slots}
	if traced {
		rt = &countingTransport{base: rt, tr: e.tr, layer: "server"}
	}
	d.client = &http.Client{Transport: rt}

	t0 := time.Now()
	d.srv, err = server.New(server.Config{
		Parallelism:     1,
		StoreDir:        dir,
		MaxJobsRetained: 1024,
		OpenStore: func(dir string) (*tooleval.ResultStore, error) {
			t := time.Now()
			st, err := tooleval.OpenResultStore(dir)
			d.open = time.Since(t)
			return st, err
		},
	})
	if err != nil {
		return nil, err
	}
	d.cells = d.srv.Store().Len()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	var ctx context.Context
	ctx, d.cancel = context.WithCancel(context.Background())
	go func() { d.done <- d.srv.Serve(ctx, ln) }()
	d.url = "http://" + ln.Addr().String()
	resp, err := d.client.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("toolbenchd /healthz: %s", resp.Status)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop drains the server, as SIGTERM does, and waits for Serve.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// loadStats pools one or more load phases' client-side measurements.
type loadStats struct {
	wall                         time.Duration
	ttfe, job, admit, gap, fetch []float64 // ms
	spec, lateness               []float64 // ms
	events, bytes, cells, cached float64
	failed                       int
	table3                       []tooleval.Result // the first jobs' Table 3 results
}

func (s *loadStats) merge(o *loadStats) {
	s.wall += o.wall
	s.ttfe = append(s.ttfe, o.ttfe...)
	s.job = append(s.job, o.job...)
	s.admit = append(s.admit, o.admit...)
	s.gap = append(s.gap, o.gap...)
	s.fetch = append(s.fetch, o.fetch...)
	s.spec = append(s.spec, o.spec...)
	s.lateness = append(s.lateness, o.lateness...)
	s.events += o.events
	s.bytes += o.bytes
	s.cells += o.cells
	s.cached += o.cached
	s.failed += o.failed
	if s.table3 == nil {
		s.table3 = o.table3
	}
}

// drive runs one open-loop phase against d: job i is sent at its due
// time whatever the state of earlier jobs, and its report is checked
// byte for byte against want[i]; the jobs t3Jobs lists lead with a
// Table 3 spec, whose results are kept. A job due while maxInFlight
// are open waits for one of them to end.
func (e *env) drive(d *daemon, jobs []loadJob, want [][]byte, t3Jobs []int, traced bool) *loadStats {
	st := &loadStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInFlight)
	t3 := make([]tooleval.Result, len(t3Jobs))
	slot := make(map[int]int, len(t3Jobs))
	for k, i := range t3Jobs {
		slot[i] = k
	}
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(j.due)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		late := ms(time.Since(due))
		wg.Add(1)
		go func(i int, j loadJob) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := e.runJob(d, j, due, traced)
			if err == nil && !bytes.Equal(r.report, want[i]) {
				err = fmt.Errorf("job %d: report differs from a local session's", i)
			}
			if k, ok := slot[i]; ok && err == nil {
				var rep struct {
					Specs []struct {
						Spec  struct{ Platform, Tool string }
						Times []float64
					}
				}
				if err = json.Unmarshal(r.report, &rep); err == nil {
					s := rep.Specs[0]
					t3[k] = tooleval.Result{Spec: tooleval.ExperimentSpec{Platform: s.Spec.Platform, Tool: s.Spec.Tool}, Times: s.Times}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			st.lateness = append(st.lateness, late)
			e.check(err == nil, "%v", err)
			if err != nil {
				st.failed++
				return
			}
			st.job = append(st.job, r.job)
			st.ttfe = append(st.ttfe, r.ttfe)
			st.admit = append(st.admit, r.admit)
			st.gap = append(st.gap, r.gaps...)
			st.fetch = append(st.fetch, r.fetch)
			st.spec = append(st.spec, r.specs...)
			st.events += r.events
			st.bytes += r.bytes
			st.cells += r.cells
			st.cached += r.cached
		}(i, j)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.table3 = t3
	return st
}

// jobResult is one job as its client saw it.
type jobResult struct {
	job, ttfe, admit, fetch float64 // ms
	gaps, specs             []float64
	events, bytes           float64
	cells, cached           float64
	report                  []byte
}

// specWire mirrors the server's JSON spec encoding.
type specWire struct {
	Kind      string  `json:"kind"`
	Platform  string  `json:"platform,omitempty"`
	Tool      string  `json:"tool,omitempty"`
	Procs     int     `json:"procs,omitempty"`
	Sizes     []int   `json:"sizes,omitempty"`
	App       string  `json:"app,omitempty"`
	ProcsList []int   `json:"procs_list,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
}

// runJob submits one job as an SSE stream, reads it to job_done, then
// fetches the report.
func (e *env) runJob(d *daemon, j loadJob, due time.Time, traced bool) (*jobResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var span Span
	if traced {
		span = Span{ID: e.tr.id(), Layer: "loadgen", Name: "job", Start: int64(due.Sub(e.tr.epoch))}
		span.Trace = span.ID
		ctx = withSpan(ctx, span.ID, span.Trace)
		defer func() {
			span.End = e.tr.now()
			e.tr.add(span)
		}()
	}
	body := struct {
		Specs []specWire `json:"specs"`
	}{}
	for _, s := range j.specs {
		body.Specs = append(body.Specs, specWire{s.Kind, s.Platform, s.Tool, s.Procs, s.Sizes, s.App, s.ProcsList, s.Scale})
	}
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/jobs", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", j.tenant)
	sent := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	r := &jobResult{}
	var jobID string
	var last time.Time
	specStart := make(map[int]time.Time)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event string
	finished := false
	for sc.Scan() && !finished {
		line := sc.Text()
		r.bytes += float64(len(line) + 1)
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			now := time.Now()
			data := []byte(strings.TrimPrefix(line, "data: "))
			r.events++
			if !last.IsZero() {
				r.gaps = append(r.gaps, ms(now.Sub(last)))
			}
			last = now
			switch event {
			case "job":
				var v struct{ Job string }
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, fmt.Errorf("job event: %w", err)
				}
				jobID = v.Job
				r.admit = ms(now.Sub(sent))
			case "spec_start", "spec_done":
				var v struct {
					Index int
					Error string
				}
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, fmt.Errorf("%s event: %w", event, err)
				}
				if v.Error != "" {
					return nil, fmt.Errorf("spec %d: %s", v.Index, v.Error)
				}
				if event == "spec_start" {
					specStart[v.Index] = now
				} else {
					r.specs = append(r.specs, ms(now.Sub(specStart[v.Index])))
				}
			case "cell":
				var v struct {
					Cached bool
					Error  string
				}
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, fmt.Errorf("cell event: %w", err)
				}
				if v.Error != "" {
					return nil, fmt.Errorf("cell: %s", v.Error)
				}
				if r.cells == 0 {
					r.ttfe = ms(now.Sub(due))
				}
				r.cells++
				if v.Cached {
					r.cached++
				}
			case "job_done":
				var v struct{ State string }
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, fmt.Errorf("job_done event: %w", err)
				}
				if v.State != "done" {
					return nil, fmt.Errorf("job %s ended %s", jobID, v.State)
				}
				finished = true
			case "gap":
				return nil, fmt.Errorf("job %s: stream skipped events", jobID)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Drain the stream's end so the connection is reused.
	io.Copy(io.Discard, resp.Body)
	if !finished || jobID == "" {
		return nil, fmt.Errorf("stream ended before job_done")
	}
	if r.cells == 0 {
		return nil, fmt.Errorf("job %s: no cell events", jobID)
	}
	fetch := time.Now()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+jobID+"/report", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", j.tenant)
	rr, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	r.report, err = io.ReadAll(rr.Body)
	rr.Body.Close()
	if err != nil {
		return nil, err
	}
	if rr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET report: %s", rr.Status)
	}
	now := time.Now()
	r.fetch = ms(now.Sub(fetch))
	r.bytes += float64(len(r.report))
	r.job = ms(now.Sub(due))
	return r, nil
}
