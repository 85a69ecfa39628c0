package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/core"
	"tooleval/internal/paperdata"
	"tooleval/internal/runner"
	"tooleval/internal/sim"
	"tooleval/internal/usability"
)

// paperCold is the headline user task: regenerate the paper. It makes
// the Session calls `toolbench all` makes — the ten experiments, then
// the closing report — at paper scale (-scale 1.0) and -j nproc, in a
// fresh session with no store, and renders the same stdout, .dat and
// report bytes.
//
// As in the batch workloads, a "job" is one experiment of the sequence,
// all of them asked for at once by the user's one command: job latency
// runs from the start of the sweep to the experiment's rendered output,
// time to first event to each cell's event, and max_jobs_per_s is
// experiments completed per second of sweep.
func paperCold(e *env) error {
	setup, err := setupProbe(15, 500, func() (func(), error) {
		s := tooleval.NewSession(tooleval.WithParallelism(e.slots))
		return func() { s.Close() }, nil
	})
	if err != nil {
		return err
	}
	e.e2e["setup_s"] = setup

	var sweeps, tracedSweeps, peaks, allocs []float64
	var lat repLatencies
	var first *paperOutput
	// One cold sweep is 10-40 s on a 2-core host, so an untraced run
	// makes as many as the window holds, at least one; a traced run
	// pairs an untraced sweep with a traced one.
	minReps := 1
	if e.trace {
		minReps = 2
	}
	err = e.repeat(minReps, func(i int) error {
		traced := e.trace && i%2 == 1
		mem := startMem()
		out, err := runPaper(e, traced)
		peak, alloc := mem.stop()
		if err != nil {
			e.fail(err)
			return nil
		}
		e.attempted += len(out.jobs)
		if traced {
			e.traced(out.sweep)
			tracedSweeps = append(tracedSweeps, out.sweep.Seconds())
		} else {
			sweeps = append(sweeps, out.sweep.Seconds())
			peaks = append(peaks, peak)
			allocs = append(allocs, alloc)
			lat.add(out.ttfe, out.jobs)
		}
		if first == nil {
			first = out
			e.checkLedger("paper-cold", paperInputs(), out.digests)
			return nil
		}
		for name, d := range first.digests {
			e.check(out.digests[name] == d, "%s digest of repetition %d (traced=%v) differs from the first", name, i, traced)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if first == nil {
		return fmt.Errorf("paper-cold: every repetition failed")
	}
	geo, worst := fidelity(first.table3)
	e.e2e["fidelity_geomean"], e.e2e["fidelity_worst"] = geo, worst
	e.e2e["sweep_s"] = median(sweeps)
	e.e2e["peak_rss_mb"] = median(peaks)
	e.e2e["alloc_mb"] = median(allocs)
	lat.report(e)
	e.e2e["max_jobs_per_s"] = float64(len(first.jobs)) / median(sweeps)
	e.note("%d untraced repetitions", len(sweeps))
	e.note("fidelity over Table 3's %d cells: geomean %.4fx, worst %.4fx", 64, geo, worst)
	if e.trace {
		e.layer["trace.overhead_ratio"] = ratio(median(tracedSweeps), median(sweeps))
		if err := e.measureReferences(1.0); err != nil {
			return err
		}
		e.layerFromSpans()
		if err := e.measureCodec(bench.VectorSizes()); err != nil {
			return err
		}
	}
	return nil
}

// paperInputs is what decides paper-cold's outputs: the experiments, in
// order, at paper scale.
func paperInputs() any {
	return struct {
		Scale       float64
		Experiments []string
	}{1.0, tooleval.Experiments()}
}

type paperOutput struct {
	sweep   time.Duration
	ttfe    []float64 // ms from sweep start, per cell event
	jobs    []float64 // ms from sweep start, per experiment
	digests map[string]string
	table3  *tooleval.Table3Result
}

// runPaper is one cold `toolbench all` sequence in a fresh session.
func runPaper(e *env, traced bool) (*paperOutput, error) {
	ctx, cancel := withTimeout(context.Background())
	defer cancel()
	opts := []tooleval.Option{tooleval.WithParallelism(e.slots)}
	if traced {
		opts = []tooleval.Option{tooleval.WithExecutor(&tracedExecutor{inner: runner.New(e.slots), tr: e.tr, memoName: "memo"})}
	}
	sess := tooleval.NewSession(opts...)
	defer sess.Close()

	var stdout strings.Builder
	dat := sha256.New()
	out := &paperOutput{digests: map[string]string{}}
	var mu sync.Mutex // guards out.ttfe, appended from worker goroutines
	start := time.Now()
	call := func(id string, fn func(ctx context.Context) error) error {
		cctx := tooleval.EventContext(ctx, func(ev tooleval.Event) {
			if _, ok := ev.(tooleval.CellEvent); ok {
				t := ms(time.Since(start))
				mu.Lock()
				out.ttfe = append(out.ttfe, t)
				mu.Unlock()
			}
		})
		var span Span
		if traced {
			span = Span{ID: e.tr.id(), Layer: "tooleval", Name: "phase " + id, Start: e.tr.now()}
			span.Trace = span.ID
			cctx = withSpan(cctx, span.ID, span.Trace)
		}
		err := fn(cctx)
		out.jobs = append(out.jobs, ms(time.Since(start)))
		if traced {
			span.End = e.tr.now()
			e.tr.add(span)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		return nil
	}
	emit := func(text string) { stdout.WriteString(text + "\n") }
	emitFig := func(id string, fig *tooleval.FigureResult) {
		fmt.Fprintf(dat, "%s.dat\n%s", id, fig.DatFile())
		emit(fig.Render())
	}
	var report []byte
	for _, id := range tooleval.Experiments() {
		err := call(id, func(ctx context.Context) error {
			switch id {
			case "table3":
				t3, err := sess.Table3(ctx)
				if err != nil {
					return err
				}
				out.table3 = t3
				emit(t3.Render())
			case "table4":
				rankings, err := sess.Table4(ctx, 4)
				if err != nil {
					return err
				}
				emit(core.RenderTable4(rankings, "sun-ethernet") + "\n" + core.RenderTable4(rankings, "sun-atm-wan"))
			case "fig2", "fig3", "fig4":
				f := map[string]func(context.Context, int) (*tooleval.FigureResult, error){"fig2": sess.Fig2, "fig3": sess.Fig3, "fig4": sess.Fig4}[id]
				fig, err := f(ctx, 4)
				if err != nil {
					return err
				}
				emitFig(id, fig)
			case "fig5", "fig6", "fig7", "fig8":
				fig, _, err := sess.APLFigure(ctx, id, 1.0)
				if err != nil {
					return err
				}
				emitFig(id, fig)
			case "adl":
				text, err := adlText()
				if err != nil {
					return err
				}
				emit(text)
			default:
				return fmt.Errorf("unknown experiment %q", id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	err := call("report", func(ctx context.Context) error {
		ev, err := sess.Evaluate(ctx, tooleval.EndUserProfile(), 1.0)
		if err != nil {
			return err
		}
		emit(core.RenderEvaluation(ev))
		report, err = core.MarshalReport(ev)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.sweep = time.Since(start)
	out.digests["stdout"] = digest([]byte(stdout.String()))
	out.digests["dat"] = hex.EncodeToString(dat.Sum(nil))
	out.digests["report"] = digest(report)
	if out.table3 == nil {
		return nil, fmt.Errorf("table3 produced no result")
	}
	return out, nil
}

// adlText renders the adl experiment as toolbench does.
func adlText() (string, error) {
	text, err := usability.Render()
	if err != nil {
		return "", err
	}
	names := tooleval.PrimitiveNames()
	prims := "Table 1: primitive name map\n"
	order := make([]string, 0, len(names))
	for prim := range names {
		order = append(order, prim)
	}
	slices.Sort(order)
	for _, prim := range order {
		byTool := names[prim]
		prims += fmt.Sprintf("  %-14s express=%-22s p4=%-22s pvm=%s\n", prim, byTool["express"], byTool["p4"], byTool["pvm"])
	}
	return prims + "\n" + text, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fidelity compares a regenerated Table 3 with the paper's: the
// geometric mean and the worst of max(sim/paper, paper/sim) over its
// cells.
func fidelity(t3 *tooleval.Table3Result) (geomean, worst float64) {
	logSum, n := 0.0, 0
	for net, byTool := range t3.TimesMs {
		for tool, sim := range byTool {
			paper := paperdata.Table3[tool][net]
			for i := range sim {
				r := sim[i] / paper[i]
				if r < 1 {
					r = 1 / r
				}
				logSum += math.Log(r)
				worst = max(worst, r)
				n++
			}
		}
	}
	return math.Exp(logSum / float64(n)), worst
}

// checkLedger compares digests with those an earlier run in this
// checkout recorded for the same inputs, and records them if none did —
// so outputs are checked across runs, traced and untraced, as well as
// across the repetitions of one run. An entry is keyed by name and a
// digest of inputs and the simulation engine's version, so a changed
// batch or engine starts a new entry. After an intended change to the
// output bytes under the same key, delete .bench_build/digests/.
func (e *env) checkLedger(name string, inputs any, digests map[string]string) {
	key, err := json.Marshal(struct {
		Engine uint64
		Inputs any
	}{sim.EngineVersion, inputs})
	if err != nil {
		e.fail(err)
		return
	}
	dir := filepath.Join(e.root, ".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.fail(err)
		return
	}
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	path := filepath.Join(dir, name+"-"+digest(key)[:16])
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		e.check(string(prev) == b.String(), "outputs differ from an earlier run's (%s)", path)
	case os.IsNotExist(err):
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			e.fail(err)
		}
	default:
		e.fail(err)
	}
}
