// Command perfbench is the repository's benchmark: it drives the
// tooleval library, the toolbenchd server and the remote executor from
// outside, through their public functions and seams, and reports
// end-to-end and per-layer metrics for three workloads.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	paper-cold       the Session calls `toolbench all` makes, at paper
//	                 scale, in a fresh session with no store
//	collective-cold  a seeded batch of TPL specs (ping-pong, broadcast,
//	                 ring, global sum) through Session.SubmitAll
//	tenant-service   toolbenchd on loopback over a pre-filled store,
//	                 driven by an open-loop schedule of SSE jobs
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// alternates untraced and traced repetitions, records spans at each
// layer boundary, writes them to .bench_build/trace/<workload>.jsonl
// and prints every per-layer metric. Outputs are checked on every
// repetition; each mismatch or failed operation counts in "failed".
// The last line of stdout is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics and their units. Every
// workload reports every one; see the workload files for what each
// measures there.
var endToEnd = []struct{ name, unit string }{
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"fidelity_geomean", "x"},
	{"fidelity_worst", "x"},
	{"ttfe_p50_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"max_jobs_per_s", "1/s"},
}

var benches = []string{"pingpong", "broadcast", "ring", "globalsum", "apl-jpeg", "apl-fft2d", "apl-montecarlo", "apl-psrs"}

var appNames = []string{"jpeg", "fft2d", "montecarlo", "psrs"}

var phases = []string{"table3", "table4", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "report"}

// traceLayers are the layers whose self time the trace reports.
var traceLayers = []string{"tooleval", "runner", "bench", "remote", "server", "loadgen"}

// perLayer lists the per-layer metrics and their units. A traced run
// reports all of them; a layer the workload does not reach reads 0.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, p := range phases {
		add("tooleval.phase_self_s."+p, "s")
	}
	add("tooleval.spec_ms_p50", "ms")
	add("runner.cells_computed", "count")
	add("runner.cells_cached", "count")
	add("runner.hit_ratio", "ratio")
	add("runner.slot_wait_s", "s")
	add("runner.busy_ratio", "ratio")
	for _, b := range benches {
		add("bench.compute_s."+b, "s")
	}
	for _, b := range benches {
		add("bench.cells."+b, "count")
	}
	add("bench.host_per_virtual.tpl", "s/s")
	add("bench.host_per_virtual.apl", "s/s")
	add("bench.compute_share.globalsum", "ratio")
	add("bench.compute_share.apl", "ratio")
	add("bench.compute_share.apl-psrs", "ratio")
	add("bench.compute_share.apl-jpeg", "ratio")
	for _, a := range appNames {
		add("apps.reference_s."+a, "s")
	}
	add("apps.reference_share", "ratio")
	add("mpt.combine_ns_per_elem", "ns")
	add("mpt.codec_bytes_per_elem", "B")
	add("store.open_s", "s")
	add("store.cells", "count")
	add("store.segment_bytes", "B")
	add("store.dropped_fills", "count")
	add("server.admit_ms_p50", "ms")
	add("server.event_gap_ms_p50", "ms")
	add("server.report_fetch_ms_p50", "ms")
	add("server.events_per_job", "count")
	add("server.bytes_per_job", "B")
	add("server.cell_cached_ratio", "ratio")
	add("loadgen.lateness_ms_p99", "ms")
	add("loadgen.ttfe_p99_ms", "ms")
	add("loadgen.job_p99_ms", "ms")
	add("remote.rpcs", "count")
	add("remote.retried", "count")
	add("remote.rpc_ms_p50", "ms")
	add("remote.worker_ms_p50", "ms")
	add("remote.bytes_per_rpc", "B")
	add("remote.sweep_over_local", "ratio")
	for _, l := range traceLayers {
		add("trace.self_s."+l, "s")
	}
	add("trace.overhead_ratio", "ratio")
	return out
}

// env is one benchmark run: its inputs, its scratch space, and what it
// has measured so far.
type env struct {
	workload string
	seed     int64
	deadline time.Time // end of the measurement window
	trace    bool
	root     string // checkout root, the working directory
	work     string // scratch directory, removed at exit
	slots    int    // simulation slots and connections: nproc

	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	tr         *tracer       // nil unless traced
	spans      []Span        // spans of the traced repetitions
	reps       float64       // traced repetitions
	tracedWall time.Duration // their summed sweep time
}

// check counts one verified operation, and a failure when ok is false.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		fmt.Printf("# FAILED %s: %s\n", e.workload, fmt.Sprintf(format, args...))
	}
}

// fail counts one operation that returned an error.
func (e *env) fail(err error) {
	e.attempted++
	e.failed++
	fmt.Printf("# FAILED %s: %v\n", e.workload, err)
}

// note prints an informational line; it is not part of the result.
func (e *env) note(format string, args ...any) {
	fmt.Printf("# %s: %s\n", e.workload, fmt.Sprintf(format, args...))
}

// repeat runs rep until the measurement window is used: at least min
// times, and again only while another repetition as long as the last
// still fits in the window.
func (e *env) repeat(min int, rep func(i int) error) error {
	var last time.Duration
	for i := 0; ; i++ {
		if i >= min && time.Now().Add(last).After(e.deadline) {
			return nil
		}
		t0 := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}

var workloads = map[string]func(*env) error{
	"paper-cold":      paperCold,
	"collective-cold": collectiveCold,
	"tenant-service":  tenantService,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		return fmt.Errorf("--workload %q: want one of %s", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{
		workload: *workload,
		seed:     *seed,
		deadline: time.Now().Add(time.Duration(*seconds * float64(time.Second))),
		trace:    *trace == 1,
		root:     root,
		work:     work,
		slots:    runtime.NumCPU(),
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
	}
	if e.trace {
		e.tr = newTracer()
	}
	fmt.Printf("# machine: %s\n", machine())
	total0, steal0 := cpuTicks()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d slots=%d\n", e.workload, e.seed, *seconds, *trace, e.slots)
	if err := fn(e); err != nil {
		return err
	}
	if e.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	fmt.Printf("# %s failed_ratio = %g (%d failed of %d attempted)\n", e.workload, float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	total1, steal1 := cpuTicks()
	fmt.Printf("# host steal: %.1f%% of CPU time during the run\n", 100*ratio(steal1-steal0, total1-total0))

	metrics := make(map[string]metric)
	if e.trace {
		e.traceSummary()
		path := filepath.Join(build, "trace", e.workload+".jsonl")
		header := map[string]string{"machine": machine(), "workload": e.workload, "seed": fmt.Sprint(e.seed)}
		if err := writeSpans(path, header, e.spans); err != nil {
			return err
		}
		for _, m := range perLayer() {
			metrics[m.name] = metric{e.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := e.e2e[m.name]
			if !ok || v <= 0 {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-16s %-36s %14.6g %s\n", e.workload, n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{e.failed == 0, e.attempted, e.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupProbe times build-and-release of a workload's serving state
// several times and returns the median, so set-up cost is measured
// even where one build is too quick to time alone: each sample times
// batch consecutive builds.
func setupProbe(samples, batch int, build func() (release func(), err error)) (float64, error) {
	var xs []float64
	for i := 0; i < samples; i++ {
		var releases []func()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			rel, err := build()
			if err != nil {
				for _, rel := range releases {
					rel()
				}
				return 0, err
			}
			releases = append(releases, rel)
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(batch))
		for _, rel := range releases {
			rel()
		}
	}
	return median(xs), nil
}

// withTimeout bounds one repetition so a hung program fails the run
// instead of the clock.
func withTimeout(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, 150*time.Second)
}
