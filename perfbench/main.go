// Command perfbench is the repository's real-clock benchmark of the ORB.
//
// It builds an in-process netsim world on the unshaped profile, runs one
// named closed-loop workload for a fixed time, verifies every reply, and
// prints the end-to-end metrics. With -trace 1 it runs the workload
// untraced for half the time and then, in a second world, traced for the
// other half: spans are recorded around every call it makes into a layer,
// isolated rows time each layer's public functions at the workload's
// message size, and the per-layer metrics are printed instead. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload rpc-small --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"openhpcxx/internal/errs"
)

// spec is one workload.
type spec struct {
	sizes   []int // ints per call; payloads are drawn per size
	variant int   // seeded payloads per size
	build   func(rec *recorder, first payload) (*world, error)
	run     loop
}

// The workloads. Each optimisable layer is heavy in one and nearly idle
// in another: rpc-small is per-call cost (core, wire, mux, dispatch);
// bulk-fig5 is bytes (XDR, netsim copies, encrypt, GC); pipelined-churn
// is the only one with futures, the coalescer, migration and
// re-selection.
var specs = map[string]spec{
	"rpc-small":       {sizes: []int{16}, variant: 256, build: buildRPCSmall, run: rpcSmall},
	"bulk-fig5":       {sizes: []int{65536, 262144}, variant: 2, build: buildBulk, run: bulkFig5},
	"pipelined-churn": {sizes: []int{64}, variant: 256, build: buildChurn, run: churn},
}

const (
	// setupReps worlds are built per run; setup_s is their median.
	setupReps = 41
	// warmup is the least a world runs before its window; gateBudget is
	// how much longer a run may warm up in all, waiting for a second in
	// which the host steals less than quietSteal of CPU time.
	warmup     = 2 * time.Second
	gateBudget = 15 * time.Second
	quietSteal = 0.1 // s per second, of two CPUs
	moveEvery  = 100 * time.Millisecond
	rowBudget  = 250 * time.Millisecond
	heapSample = 5 * time.Millisecond
	// udprelBusyCalls are timed after the udprel duplicate table fills.
	udprelBusyCalls = 1024
)

func main() {
	workload := flag.String("workload", "", "workload: rpc-small, bulk-fig5 or pipelined-churn")
	seed := flag.Int64("seed", 1, "seed for the payload values")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	commit := flag.String("commit", "unknown", "commit of the code under test, for the record")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload rpc-small|bulk-fig5|pipelined-churn, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one named figure of the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, sp spec, seed int64, window time.Duration, traced bool, commit string) error {
	env, err := json.Marshal(probeEnv(seed, commit))
	if err != nil {
		return err
	}
	fmt.Printf("perfbench workload=%s seed=%d window=%v trace=%t\nenv %s\n", name, seed, window, traced, env)
	pays := makePayloads(seed, sp.sizes, sp.variant)
	first := pays[0][0]

	// Set-up: build the world several times from a collected heap, keep
	// the last.
	var setups samples
	var w *world
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if w, err = sp.build(nil, first); err != nil {
			return err
		}
		setups.add(int64(time.Since(start)))
	}
	defer w.close()
	sd := setups.sorted()
	setups.release()
	setupS := sd.q(0.5) / 1e9
	fmt.Printf("setup %d worlds: min %.3f ms, median %.3f ms, max %.3f ms\n", len(sd), sd.q(0)/1e6, sd.q(0.5)/1e6, sd.q(1)/1e6)

	gate := gateBudget
	if !traced {
		r := measure(sp, w, pays, nil, window, &gate)
		out := endToEnd(r, setupS)
		printMetrics("e2e", out.Metrics, r)
		return finish(out, r)
	}

	window /= 2
	plain := measure(sp, w, pays, nil, window, &gate)
	printMetrics("e2e(untraced)", endToEnd(plain, setupS).Metrics, plain)
	rec := newRecorder()
	registerTimedKinds(rec)
	tw, err := sp.build(rec, first)
	if err != nil {
		return err
	}
	defer tw.close()
	tr := measure(sp, tw, pays, rec, window, &gate)
	layers := perLayer(rec, tr, plain)
	if err := addRows(layers, w, frame(pays[len(pays)-1][0]), frame(makePayloads(seed, []int{16}, 1)[0][0])); err != nil {
		return err
	}
	printMetrics("layer", layers, tr)
	plain.attempted += tr.attempted
	plain.failed += tr.failed
	if plain.err == nil {
		plain.err = tr.err
	}
	return finish(output{Metrics: layers}, plain)
}

// rowKeepsAllocs names the isolated rows whose allocations and bytes per
// op are per-layer metrics too.
var rowKeepsAllocs = map[string]bool{
	"core.dispatch": true, "core.select": true, "wire.roundtrip": true,
	"transport.mux_call": true, "transport.shm_call": true,
}

// addRows measures the isolated rows at the workload's message size and
// the busy-udprel row at a small one.
func addRows(layers map[string]metric, w *world, args, small []byte) error {
	rows, cleanup, err := isolatedRows(w, args)
	if err != nil {
		return err
	}
	defer cleanup()
	for _, rw := range rows {
		res, err := measureRow(rw.op, rowBudget)
		if err != nil {
			return errs.Wrapf(errs.CodeOf(err), err, "perfbench: isolated row %s", rw.name)
		}
		fmt.Printf("row %-30s %12.1f ns/op %10.2f allocs/op %12.1f B/op (ops=%d)\n", rw.name, res.ns, res.allocs, res.bytes, res.ops)
		layers[rw.name+"_ns"] = metric{res.ns, "ns"}
		if rowKeepsAllocs[rw.name] {
			layers[rw.name+"_allocs"] = metric{res.allocs, "count"}
			layers[rw.name+"_B"] = metric{res.bytes, "B"}
		}
	}
	busy, err := udprelBusy(small, udprelBusyCalls)
	if err != nil {
		return errs.Wrapf(errs.CodeOf(err), err, "perfbench: busy udprel row")
	}
	fmt.Printf("row %-30s %12.1f ns/op (after %d completed requests)\n", "udprel.request_busy", busy, udprelDoneTable)
	layers["udprel.request_busy_ns"] = metric{busy, "ns"}
	return nil
}

// finish prints the JSON result line; any failed or mismatched call
// makes the run incorrect and the exit status non-zero.
func finish(out output, r result) error {
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0 && r.err == nil && r.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		if r.err == nil {
			r.err = errs.New(errs.Internal, "no calls completed")
		}
		return errs.Wrapf(errs.CodeOf(r.err), r.err, "perfbench: %d of %d calls failed", r.failed, r.attempted)
	}
	return nil
}
