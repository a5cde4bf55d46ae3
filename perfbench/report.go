package main

import (
	"fmt"
	"sort"
	"strings"

	"openhpcxx/internal/core"
)

// perLayer turns the traced window into the per-layer metrics. Layers a
// workload does not exercise (capabilities in rpc-small, migration and
// futures outside pipelined-churn) are printed with their sample counts
// but kept out of the JSON, which carries the same metrics for every
// workload.
func perLayer(rec *recorder, tr, plain result) map[string]metric {
	out := make(map[string]metric)
	med := func(name string) (float64, int) {
		d := rec.dist(name)
		if len(d) == 0 {
			fmt.Printf("span %-36s not on this workload's call path\n", name)
			return 0, 0
		}
		fmt.Printf("span %-36s p50 %12.1f ns  p99 %12.1f ns  (n=%d, above p99=%d)\n", name, d.q(0.5), d.q(0.99), len(d), d.above(0.99))
		return d.q(0.5), len(d)
	}
	invoke := rec.dist("core.invoke_ns")
	for _, n := range []string{"core.invoke_ns", "xdr.marshal_ns", "xdr.unmarshal_ns", "server_stub.ns", "servant.ns"} {
		v, _ := med(n)
		out[n] = metric{v, "ns"}
	}
	// Capability time per call: the client's process and unprocess, the
	// server's unprocess and process, weighted into the residual by the
	// share of calls that carry the capability.
	capNs := 0.0
	for _, kind := range timedKinds {
		for _, side := range []string{"client", "server"} {
			base := "capability." + kind + "." + side
			p, calls := med(base + ".process")
			u, _ := med(base + ".unprocess")
			if calls > 0 {
				fmt.Printf("span %-36s p50 %12.1f ns per call through it (process + unprocess, calls=%d)\n", base+"_ns", p+u, calls)
				capNs += (p + u) * float64(calls) / float64(len(invoke))
			}
		}
	}
	for _, n := range []string{"future.wait_ns", "migrate.move_ns"} {
		med(n)
	}
	out["residual.transport_ns"] = metric{out["core.invoke_ns"].Value - out["server_stub.ns"].Value - out["servant.ns"].Value - capNs, "ns"}
	layerSum := out["xdr.marshal_ns"].Value + out["core.invoke_ns"].Value + out["xdr.unmarshal_ns"].Value
	out["unattributed_us"] = metric{plain.p50/1e3 - layerSum/1e3, "us"}
	out["trace.overhead_ratio"] = metric{tr.rate / plain.rate, "ratio"}

	c := tr.counters
	occupancy := 0.0
	if c["srv.batches"] > 0 {
		occupancy = float64(c["srv.batch_msgs"]) / float64(c["srv.batches"])
	}
	out["transport.batch_occupancy"] = metric{occupancy, "ratio"}
	out["migrate.moves"] = metric{float64(tr.moves), "count"}
	faults := uint64(0)
	for k, v := range c {
		if strings.HasPrefix(k, "rpc.") && strings.HasSuffix(k, ".faults") {
			faults += v
		}
	}
	out["core.moved_faults"] = metric{float64(faults), "count"}
	out["core.retry_attempts"] = metric{float64(c["rpc.retry.attempts"]), "count"}
	out["core.selects"] = metric{float64(tr.selects), "count"}
	out["core.refreshes"] = metric{float64(tr.refreshes), "count"}
	for _, p := range protos {
		out["core.calls."+p] = metric{float64(c["rpc."+p+".calls"]), "count"}
	}
	out["gc.cycles"] = metric{float64(tr.after.numGC - tr.before.numGC), "count"}
	out["gc.pause_ns"] = metric{float64(tr.after.pauseNs - tr.before.pauseNs), "ns"}
	return out
}

var protos = []string{string(core.ProtoSHM), string(core.ProtoStream), string(core.ProtoNexus), string(core.ProtoGlue)}

func printMetrics(tag string, m map[string]metric, r result) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		switch n {
		case "calls_per_s", "goodput_MBps":
			note = fmt.Sprintf("  (over %d quiet slices of %d)", r.quiet, r.full)
		case "latency_p50_us":
			note = fmt.Sprintf("  (n=%d)", r.n)
		case "latency_p99_us":
			note = fmt.Sprintf("  (n=%d, above p99=%d; whole window p99 %.1f us)", r.n, r.above, r.p99All/1e3)
		case "heap_peak_MB":
			note = fmt.Sprintf("  (median of per-slice peaks; highest sample %.2f MB)", float64(r.heapPeak)/1e6)
		case "success_ratio":
			note = fmt.Sprintf("  (fail_ratio=%g: %d failed or mismatched of %d attempted)", 1-m[n].Value, r.failed, r.attempted)
		}
		fmt.Printf("%s %-22s %14.4f %s%s\n", tag, n, m[n].Value, m[n].Unit, note)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
