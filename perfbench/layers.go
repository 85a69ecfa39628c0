package main

import (
	"runtime"
	"strings"
	"time"

	"tooleval"
	"tooleval/internal/apps/fft"
	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/montecarlo"
	"tooleval/internal/apps/psrs"
	"tooleval/internal/mpt"
)

// layerFromSpans derives the per-layer metrics of the workloads that
// run a session over a traced executor — runner, bench and tooleval —
// from the traced repetitions' spans, as per-repetition averages.
func (e *env) layerFromSpans() {
	reps, wall := e.reps, e.tracedWall.Seconds()
	if reps == 0 {
		return
	}
	children := childIndex(e.spans)
	var computed, cached, slotWait, busy float64
	computeBy := make(map[string]float64)
	cellsBy := make(map[string]float64)
	var tplHost, tplVirt, aplHost, aplVirt float64
	var specMs []float64
	for _, s := range e.spans {
		switch {
		case s.Layer == "runner" && s.Name == "memo":
			// A miss has one child: the compute closure, or the RPC
			// standing in for it on a remote coordinator.
			kids := children[s.ID]
			if len(kids) == 0 {
				cached++
				continue
			}
			computed++
			slotWait += time.Duration(kids[0].Start - s.Start).Seconds()
			busy += kids[0].dur().Seconds()
		case s.Layer == "bench":
			computeBy[s.Name] += s.dur().Seconds()
			cellsBy[s.Name]++
			if strings.HasPrefix(s.Name, "apl-") {
				aplHost += s.dur().Seconds()
				aplVirt += time.Duration(s.Virtual).Seconds()
			} else {
				tplHost += s.dur().Seconds()
				tplVirt += time.Duration(s.Virtual).Seconds()
			}
		case s.Layer == "tooleval" && s.Name == "spec":
			specMs = append(specMs, ms(s.dur()))
		case s.Layer == "tooleval" && strings.HasPrefix(s.Name, "phase "):
			p := strings.TrimPrefix(s.Name, "phase ")
			e.layer["tooleval.phase_self_s."+p] += selfTime(s, children).Seconds() / reps
			if e.workload == "paper-cold" {
				specMs = append(specMs, ms(s.dur()))
			}
		}
	}
	e.layer["tooleval.spec_ms_p50"] = median(specMs)
	e.layer["runner.cells_computed"] = computed / reps
	e.layer["runner.cells_cached"] = cached / reps
	e.layer["runner.hit_ratio"] = ratio(cached, computed+cached)
	e.layer["runner.slot_wait_s"] = slotWait / reps
	e.layer["runner.busy_ratio"] = ratio(busy, wall*float64(e.slots))
	total := 0.0
	for _, b := range benches {
		e.layer["bench.compute_s."+b] = computeBy[b] / reps
		e.layer["bench.cells."+b] = cellsBy[b] / reps
		total += computeBy[b]
	}
	e.layer["bench.host_per_virtual.tpl"] = ratio(tplHost, tplVirt)
	e.layer["bench.host_per_virtual.apl"] = ratio(aplHost, aplVirt)
	e.layer["bench.compute_share.globalsum"] = ratio(computeBy["globalsum"], total)
	e.layer["bench.compute_share.apl"] = ratio(aplHost, total)
	e.layer["bench.compute_share.apl-psrs"] = ratio(computeBy["apl-psrs"], total)
	e.layer["bench.compute_share.apl-jpeg"] = ratio(computeBy["apl-jpeg"], total)
	ref := 0.0
	for _, a := range appNames {
		ref += e.layer["apps.reference_s."+a] * cellsBy["apl-"+a]
	}
	e.layer["apps.reference_share"] = ratio(ref, total)
}

// traceSummary adds each layer's self time per traced repetition to
// what the workload recorded apart (the remote probe's).
func (e *env) traceSummary() {
	if e.reps == 0 {
		return
	}
	self := selfTimes(e.spans)
	for _, l := range traceLayers {
		e.layer["trace.self_s."+l] += self[l].Seconds() / e.reps
	}
}

// traced records one traced repetition's spans and sweep time.
func (e *env) traced(wall time.Duration) {
	e.spans = append(e.spans, e.tr.take()...)
	e.reps++
	e.tracedWall += wall
}

// measureReferences times one sequential reference per suite app at
// scale — the computation every APL cell's verification repeats.
func (e *env) measureReferences(scale float64) error {
	refs := []func() error{
		func() error { _, err := jpeg.Sequential(jpeg.DefaultConfig().Scaled(scale)); return err },
		func() error { _, err := fft.Sequential(fft.DefaultConfig().Scaled(scale)); return err },
		func() error { _, err := montecarlo.Sequential(montecarlo.DefaultConfig().Scaled(scale)); return err },
		func() error { _, err := psrs.Sequential(psrs.DefaultConfig().Scaled(scale)); return err },
	}
	for i, ref := range refs {
		t0 := time.Now()
		if err := ref(); err != nil {
			return err
		}
		e.layer["apps.reference_s."+appNames[i]] = time.Since(t0).Seconds()
	}
	return nil
}

// measureCodec times the global sum's per-hop work — encode the local
// vector, combine it with a peer's, decode the result — directly
// through the mpt codec at the given vector lengths, and counts the
// bytes it allocates.
func (e *env) measureCodec(lens []int) error {
	var elems, nanos, bytes float64
	for _, n := range lens {
		if n <= 0 {
			continue
		}
		vec := make([]int64, n)
		for i := range vec {
			vec[i] = int64(i)
		}
		peer := mpt.EncodeInt64s(vec)
		iters := max(1, 2_000_000/n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			out, err := mpt.CombineSumInt64(mpt.EncodeInt64s(vec), peer)
			if err != nil {
				return err
			}
			if _, err := mpt.DecodeInt64s(out); err != nil {
				return err
			}
		}
		nanos += float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		elems += float64(iters * n)
	}
	e.layer["mpt.combine_ns_per_elem"] = ratio(nanos, elems)
	e.layer["mpt.codec_bytes_per_elem"] = ratio(bytes, elems)
	return nil
}

// globalSumLens collects the vector lengths of the batch's global sums.
func globalSumLens(specs []tooleval.ExperimentSpec) []int {
	var out []int
	for _, s := range specs {
		if s.Kind == tooleval.KindGlobalSum {
			out = append(out, s.Sizes...)
		}
	}
	return out
}
