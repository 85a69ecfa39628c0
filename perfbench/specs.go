package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/paperdata"
)

// The program sees only the specs generated here; every generator is a
// pure function of the seed.

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// table3Specs is the paper's Table 3 point set: ping-pong at the exact
// paper sizes on the three SUN networks. Every workload carries it, so
// fidelity to the paper is measured on what each workload served.
func table3Specs() []tooleval.ExperimentSpec {
	var out []tooleval.ExperimentSpec
	for _, net := range []string{"ethernet", "atm-lan", "atm-wan"} {
		for _, tool := range []string{"p4", "pvm", "express"} {
			if _, ok := paperdata.Table3[tool][net]; !ok {
				continue
			}
			out = append(out, tooleval.ExperimentSpec{
				Kind: tooleval.KindPingPong, Platform: paperdata.Table3PlatformKey[net], Tool: tool,
				Procs: 2, Sizes: bench.StandardSizes(),
			})
		}
	}
	return out
}

// tplShape is one (benchmark, platform, tool, procs) combination of the
// TPL matrix.
type tplShape struct {
	kind, platform, tool string
	procs                int
}

// tplShapes lists the TPL matrix: ping-pong, broadcast, ring and global
// sum on all six platforms, every ported tool, procs {2,4,8} within the
// platform's processor count. PVM has no global sum (paper Table 1), so
// that pairing is left out rather than generated to fail.
func tplShapes() []tplShape {
	var out []tplShape
	for _, pf := range tooleval.Platforms() {
		for _, tool := range pf.Tools {
			out = append(out, tplShape{tooleval.KindPingPong, pf.Key, tool, 2})
			for _, kind := range []string{tooleval.KindBroadcast, tooleval.KindRing, tooleval.KindGlobalSum} {
				if kind == tooleval.KindGlobalSum && tool == "pvm" {
					continue
				}
				for _, procs := range []int{2, 4, 8} {
					if procs <= pf.MaxProcs {
						out = append(out, tplShape{kind, pf.Key, tool, procs})
					}
				}
			}
		}
	}
	return out
}

// paperSizes are the sizes the paper sweeps for a benchmark: bytes for
// the message benchmarks, elements for the global sum.
func paperSizes(kind string) []int {
	if kind == tooleval.KindGlobalSum {
		return bench.VectorSizes()
	}
	return bench.StandardSizes()
}

// jitter draws a size around a paper size: uniform in [0.8, 1.25]
// times it. Every paper size is kept, so a batch's total work varies
// little from seed to seed while its cell keys all change.
func jitter(r *rand.Rand, size int) int {
	return int(float64(size) * (0.8 + 0.45*r.Float64()))
}

func (s tplShape) spec(sizes []int) tooleval.ExperimentSpec {
	return tooleval.ExperimentSpec{Kind: s.kind, Platform: s.platform, Tool: s.tool, Procs: s.procs, Sizes: sizes}
}

// collectiveBatch is the TPL batch of collective-cold and its remote probe:
// Table 3's point set, then one spec per TPL shape with every paper
// size jittered.
func collectiveBatch(seed int64) []tooleval.ExperimentSpec {
	r := newRand(seed, 1)
	out := table3Specs()
	for _, sh := range tplShapes() {
		var sizes []int
		for _, s := range paperSizes(sh.kind) {
			sizes = append(sizes, jitter(r, s))
		}
		out = append(out, sh.spec(sizes))
	}
	return out
}

// Tenant-service traffic. The hot set is what a restarted daemon's
// store already holds; jobs mostly re-ask it, and a minority bring
// fresh cells. The repository holds no record of toolbenchd traffic:
// these sizes and shares are assumptions, not measurements.
const (
	hotShapes     = 48   // TPL specs in the hot set besides Table 3
	freshTPLShare = 0.15 // jobs carrying one fresh TPL cell
	freshAppShare = 0.02 // jobs that are one fresh small-scale app cell
	maxJobSpecs   = 4
)

// hotSet is Table 3's point set plus hotShapes TPL specs of one or two
// jittered paper sizes each, kept below 16 KB (or 25,000 elements) so
// the hot set stays small enough to pre-fill quickly.
func hotSet(seed int64) []tooleval.ExperimentSpec {
	r := newRand(seed, 2)
	shapes := tplShapes()
	out := table3Specs()
	for i := 0; i < hotShapes; i++ {
		sh := shapes[r.IntN(len(shapes))]
		sizes := paperSizes(sh.kind)
		limit := 6 // 16 KB
		if sh.kind == tooleval.KindGlobalSum {
			limit = 3 // 25,000 elements
		}
		n := 1 + r.IntN(2)
		var picked []int
		for j := 0; j < n; j++ {
			picked = append(picked, jitter(r, sizes[r.IntN(limit)]))
		}
		out = append(out, sh.spec(picked))
	}
	return out
}

var tplKinds = []string{tooleval.KindPingPong, tooleval.KindBroadcast, tooleval.KindRing, tooleval.KindGlobalSum}

type loadJob struct {
	due    time.Duration // offset from the start of the phase
	tenant string
	specs  []tooleval.ExperimentSpec
	fresh  bool // carries a fresh cell
}

// jobSchedule lays out n jobs at a fixed rate (evenly spaced: an open
// loop) over the tenants. Each job has 1 to maxJobSpecs specs drawn
// from the hot set. Exactly freshTPLShare of the jobs swap one spec for
// a fresh one-size TPL spec, and freshAppShare are a lone fresh psrs
// cell at scale 0.05; the seed picks which jobs, and the platforms,
// tools and sizes of the fresh TPL cells. Fixing the mix keeps the
// latency tail comparable from seed to seed: the app jobs, several
// times slower than the rest, are the top two percent, so the p99 of
// job latency and of time to first event falls inside them. stream
// separates the schedules of different phases of one seed.
func jobSchedule(seed int64, stream uint64, hot []tooleval.ExperimentSpec, tenants, n int, rate float64) []loadJob {
	r := newRand(seed, 100+stream)
	shapes := tplShapes()
	nApp := int(float64(n)*freshAppShare + 0.5)
	nTPL := int(float64(n)*freshTPLShare + 0.5)
	const hotOnly, freshTPL, freshApp = 0, 1, 2
	kind := make([]int, n)
	for i := range kind {
		switch {
		case i < nApp:
			kind[i] = freshApp
		case i < nApp+nTPL:
			kind[i] = freshTPL
		}
	}
	r.Shuffle(n, func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
	jobs := make([]loadJob, n)
	tpl := 0
	for i := range jobs {
		k := 1 + r.IntN(maxJobSpecs)
		if kind[i] == freshApp {
			k = 1
		}
		if kind[i] == freshTPL {
			// A fresh cell alone in its job sets the job's time to first
			// event, so how many specs ride with it cycles too.
			k = 1 + tpl/len(tplKinds)%maxJobSpecs
		}
		specs := make([]tooleval.ExperimentSpec, k)
		for j := range specs {
			specs[j] = hot[r.IntN(len(hot))]
		}
		switch kind[i] {
		case freshApp:
			// The scale's small jitter keeps each app cell fresh.
			specs[0] = tooleval.ExperimentSpec{
				Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4",
				App: "psrs", ProcsList: []int{2}, Scale: 0.05 * (1 + 0.01*r.Float64()),
			}
		case freshTPL:
			// Benchmark, procs and size stratum cycle, so every schedule
			// carries the same mix of cell costs; the seed picks the
			// platform, tool and size within each stratum.
			tk := tplKinds[tpl%len(tplKinds)]
			procs := []int{2, 4, 8}[tpl/len(tplKinds)%3]
			var fits []tplShape
			for _, sh := range shapes {
				if sh.kind == tk && (sh.procs == procs || tk == tooleval.KindPingPong) {
					fits = append(fits, sh)
				}
			}
			sh := fits[r.IntN(len(fits))]
			limit := 16 << 10
			if tk == tooleval.KindGlobalSum {
				limit = 25_000
			}
			size := 1 + int(float64(limit)*(float64(tpl/12%8)+r.Float64())/8)
			specs[0] = sh.spec([]int{size})
			tpl++
		}
		jobs[i] = loadJob{
			due:    time.Duration(float64(i) / rate * float64(time.Second)),
			tenant: fmt.Sprintf("tenant-%d", i%tenants),
			specs:  specs,
			fresh:  kind[i] != hotOnly,
		}
	}
	return jobs
}
