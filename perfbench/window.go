package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// result is one measured window.
type result struct {
	attempted, completed, failed int
	err                          error
	before, after                resources
	counters                     map[string]uint64 // registry counter changes
	moves                        int
	selects, refreshes           int
	// Rates and latency (ns) over the window's quiet slices, and the
	// whole window's p99 for comparison.
	rate, byteRate float64
	p50, p99       float64
	n, above       int
	p99All         float64
	quiet, full    int     // quiet slices of the full ones
	warm           float64 // s spent warming up
	heapPeak       int64   // highest sample, bytes
	heapPeaks      []float64
	steal          []float64 // s stolen by the host, per full slice
}

// minP99 is the fewest samples a p99 is taken over: ten beyond it.
const minP99 = 1000

// quietSlices picks the slices the figures are taken over: the quieter
// half of the window's full slices, those in which the host stole the
// least CPU time from the machine the benchmark runs on. A burst of load
// from outside the process then moves the slices it hit out of the
// figures.
func quietSlices(steal []float64) []bool {
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := 0.0
	if len(sorted) > 0 {
		limit = sorted[(len(sorted)-1)/2]
	}
	quiet := make([]bool, len(steal))
	for i, s := range steal {
		quiet[i] = s <= limit
	}
	return quiet
}

// quietFigures fills in the rates and latency percentiles over the
// quiet slices. When they hold fewer than minP99 samples, the latency
// comes from the whole window.
func (r *result) quietFigures(tallies []*tally, quiet []bool) {
	var q samples
	var bytes int64
	for _, t := range tallies {
		for i := range t.sliceFirst {
			if i < len(quiet) && quiet[i] {
				q.mergeRange(&t.lat, t.sliceFirst[i], t.sliceEnd(i))
				bytes += t.sliceBytes[i]
			}
		}
	}
	for _, ok := range quiet {
		if ok {
			r.quiet++
		}
	}
	secs := float64(r.quiet) * slice.Seconds()
	r.rate, r.byteRate = float64(q.n)/secs, float64(bytes)/secs
	if q.n < minP99 {
		q.release()
		for _, t := range tallies {
			q.mergeRange(&t.lat, 0, t.lat.n)
		}
	}
	d := q.sorted()
	q.release()
	r.p50, r.p99, r.n, r.above = d.q(0.5), d.q(0.99), len(d), d.above(0.99)
}

// warmUp runs the workload for at least warmup and then, in steps of a
// second, until a step passes with less than quietSteal of host steal
// or budget runs out; it returns the time spent past the minimum.
// Steal only accrues while the machine's CPUs are busy, so the probe
// has to be the workload itself.
func warmUp(sp spec, w *world, pays [][]payload, budget time.Duration) time.Duration {
	run := func(d time.Duration) float64 {
		s0 := stolen()
		for _, t := range sp.run(w, pays, nil, time.Now().Add(d)) {
			t.lat.release()
		}
		return stolen() - s0
	}
	run(warmup - time.Second)
	start := time.Now()
	for run(time.Second) >= quietSteal && time.Since(start) < budget {
	}
	return time.Since(start) - time.Second
}

// measure warms the world up, then runs the workload for the window and
// charges it the process CPU, allocations and heap it used. The warm-up
// may run on into gate, which it uses up, waiting for the host to stop
// stealing CPU time.
func measure(sp spec, w *world, pays [][]payload, rec *recorder, window time.Duration, gate *time.Duration) result {
	if w.mover != nil {
		w.mover.start(moveEvery)
		defer w.mover.halt()
	}
	waited := warmUp(sp, w, pays, *gate)
	*gate -= waited
	if rec != nil {
		rec.reset()
	}
	runtime.GC()
	c0 := w.rt.MetricsSnapshot().Counters
	moves0, _ := w.mover.state()
	var smp *sampler
	if rec == nil {
		smp = startSampler(heapSample)
	}
	r := result{before: snapshot()}
	tallies := sp.run(w, pays, rec, r.before.at.Add(window))
	r.after = snapshot()
	if smp != nil {
		r.heapPeak, r.heapPeaks, r.steal = smp.finish(int(window / slice))
	}
	moves1, moveErr := w.mover.state()
	r.moves = moves1 - moves0
	c1 := w.rt.MetricsSnapshot().Counters
	r.counters = make(map[string]uint64, len(c1))
	for k, v := range c1 {
		r.counters[k] = v - c0[k]
	}
	for _, e := range w.rt.Events() {
		if e.Time.Before(r.before.at) || e.Time.After(r.after.at) {
			continue
		}
		switch e.Kind {
		case "select", "promote":
			r.selects++
		case "refresh":
			r.refreshes++
		}
	}
	for _, t := range tallies {
		r.attempted += t.attempted
		r.completed += t.lat.n
		r.failed += t.failed
		if r.err == nil {
			r.err = t.err
		}
	}
	r.full, r.warm = int(window/slice), (warmup + waited).Seconds()
	if smp == nil {
		r.steal = make([]float64, r.full) // untimed passes take every slice
	}
	r.quietFigures(tallies, quietSlices(r.steal))
	var all samples
	for _, t := range tallies {
		all.mergeRange(&t.lat, 0, t.lat.n)
		t.lat.release()
	}
	r.p99All = all.sorted().q(0.99)
	all.release()
	fmt.Printf("warm-up %.1f s; %d of %d slices of %v quiet\nslices of %v: host steal ms %.0f\nslices of %v: heap MB %.2f\n",
		r.warm, r.quiet, r.full, slice, slice, scale(r.steal, 1e3), slice, r.heapPeaks)
	if moveErr != nil {
		r.failed++
		if r.err == nil {
			r.err = moveErr
		}
	}
	return r
}

func endToEnd(r result, setupS float64) output {
	calls := float64(r.completed)
	if calls == 0 {
		calls = 1
	}
	allocs := float64(r.after.mallocs - r.before.mallocs)
	bytes := float64(r.after.alloc - r.before.alloc)
	m := map[string]metric{
		"calls_per_s":          {r.rate, "calls/s"},
		"goodput_MBps":         {r.byteRate / 1e6, "MB/s"},
		"latency_p50_us":       {r.p50 / 1e3, "us"},
		"latency_p99_us":       {r.p99 / 1e3, "us"},
		"success_ratio":        {1 - float64(r.failed)/float64(max(r.attempted, 1)), "ratio"},
		"cpu_us_per_call":      {float64(r.after.cpu-r.before.cpu) / 1e3 / calls, "us"},
		"alloc_bytes_per_call": {bytes / calls, "B"},
		"allocs_per_call":      {allocs / calls, "count"},
		"heap_peak_MB":         {median(r.heapPeaks), "MB"},
		"setup_s":              {setupS, "s"},
	}
	return output{Metrics: m}
}
