package main

import (
	"sync"
	"time"

	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/future"
	"openhpcxx/internal/xdr"
)

// slice is the length of the sub-windows a run is counted in (see
// quietSlices).
const slice = 500 * time.Millisecond

// tally is one caller's account of a run.
type tally struct {
	origin            time.Time // start of the first slice
	lat               samples   // issue to verified reply, ns, in completion order
	attempted, failed int
	// Per slice: the index in lat of its first sample, and the payload
	// bytes of its calls.
	sliceFirst []int
	sliceBytes []int64
	err        error // first failure
}

func newTally() *tally {
	const n = 256 // slices of room, so a window does not grow them
	return &tally{origin: time.Now(), sliceFirst: make([]int, 0, n), sliceBytes: make([]int64, 0, n)}
}

// sliceEnd is the index in lat after slice i's last sample.
func (t *tally) sliceEnd(i int) int {
	if i+1 < len(t.sliceFirst) {
		return t.sliceFirst[i+1]
	}
	return t.lat.n
}

// settle decodes and checks a reply and accounts for the call.
func (t *tally) settle(p payload, out []byte, err error, start time.Time, rec *recorder) {
	u0 := time.Now()
	reply := new(core.Int32Slice)
	if err == nil {
		err = xdr.Unmarshal(out, reply)
	}
	end := time.Now()
	if err == nil {
		err = matches(p, reply)
	}
	if err != nil {
		t.failed++
		if t.err == nil {
			t.err = err
		}
		return
	}
	rec.add("xdr.unmarshal_ns", end.Sub(u0))
	b := 2 * int64(4+4*len(p.vals.V)) // XDR array payload, request plus reply
	for i := int(end.Sub(t.origin) / slice); len(t.sliceFirst) <= i; {
		t.sliceFirst = append(t.sliceFirst, t.lat.n)
		t.sliceBytes = append(t.sliceBytes, 0)
	}
	t.sliceBytes[len(t.sliceBytes)-1] += b
	t.lat.add(int64(end.Sub(start)))
}

// matches checks a reply against the payload sent: the same length and
// the same checksum.
func matches(p payload, reply *core.Int32Slice) error {
	if len(reply.V) != len(p.vals.V) || checksum(reply.V) != p.sum {
		return errs.Newf(errs.Internal, "perfbench: reply of %d ints does not match the %d sent", len(reply.V), len(p.vals.V))
	}
	return nil
}

// syncCall is core.Call spelled out, so the traced run can time the
// client stub's XDR work apart from the invocation.
func (t *tally) syncCall(gp *core.GlobalPtr, p payload, rec *recorder) {
	t.attempted++
	t0 := time.Now()
	args, err := xdr.Marshal(p.vals)
	t1 := time.Now()
	var out []byte
	if err == nil {
		out, err = gp.Invoke("exchange", args)
	}
	t2 := time.Now()
	if rec != nil {
		rec.add("xdr.marshal_ns", t1.Sub(t0))
		rec.add("core.invoke_ns", t2.Sub(t1))
	}
	t.settle(p, out, err, t0, rec)
}

// pending is one asynchronous call in flight.
type pending struct {
	fut    *future.Future
	p      payload
	t0, t1 time.Time // before marshaling, before InvokeAsync
}

func (t *tally) issue(gp *core.GlobalPtr, p payload, rec *recorder) pending {
	t.attempted++
	t0 := time.Now()
	args, err := xdr.Marshal(p.vals)
	t1 := time.Now()
	rec.add("xdr.marshal_ns", t1.Sub(t0))
	if err != nil {
		return pending{fut: future.Failed(err), p: p, t0: t0, t1: t1}
	}
	return pending{fut: gp.InvokeAsync("exchange", args), p: p, t0: t0, t1: t1}
}

func (t *tally) collect(c pending, rec *recorder) {
	w0 := time.Now()
	out, err := c.fut.Wait()
	w1 := time.Now()
	if rec != nil {
		rec.add("future.wait_ns", w1.Sub(w0))
		rec.add("core.invoke_ns", w1.Sub(c.t1))
	}
	t.settle(c.p, out, err, c.t0, rec)
}

// A loop runs one workload's callers until the deadline and returns
// their tallies.
type loop func(w *world, pays [][]payload, rec *recorder, deadline time.Time) []*tally

// rpcSmall: each of two callers calls synchronously, round-robin over
// its own three GPs.
func rpcSmall(w *world, pays [][]payload, rec *recorder, deadline time.Time) []*tally {
	out := make([]*tally, len(w.gps))
	var wg sync.WaitGroup
	for c := range w.gps {
		out[c] = newTally()
		wg.Add(1)
		go func(t *tally, gps []*core.GlobalPtr, ps []payload) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t.syncCall(gps[i%len(gps)], ps[i%len(ps)], rec)
			}
		}(out[c], w.gps[c], pays[0][c*len(pays[0])/2:])
	}
	wg.Wait()
	return out
}

// bulkSizes is the order of array sizes (indices into the workload's
// sizes) a bulk round goes through, a round being one call on each
// series. Two small to three large puts the median call inside one
// series' latency mode, where an even split would put it in the gap
// between two modes and let it jump from run to run.
var bulkSizes = []int{0, 1, 0, 1, 1}

// bulkFig5: one synchronous caller, round-robin over the four series,
// changing the array size every round.
func bulkFig5(w *world, pays [][]payload, rec *recorder, deadline time.Time) []*tally {
	t := newTally()
	gps := w.gps[0]
	for i := 0; time.Now().Before(deadline); i++ {
		round := i / len(gps)
		ps := pays[bulkSizes[round%len(bulkSizes)]]
		t.syncCall(gps[i%len(gps)], ps[(round/len(bulkSizes))%len(ps)], rec)
	}
	return []*tally{t}
}

// churnDepth is how many futures the churn caller keeps in flight.
const churnDepth = 16

// churn: one caller keeps churnDepth futures in flight, collecting them
// in issue order: half on the migrating GP, a quarter batched, a
// quarter through the glue chain.
func churn(w *world, pays [][]payload, rec *recorder, deadline time.Time) []*tally {
	t := newTally()
	move, batch, glue := w.gps[0][0], w.gps[0][1], w.gps[0][2]
	route := [4]*core.GlobalPtr{move, batch, move, glue}
	ps := pays[0]
	var ring [churnDepth]pending
	for k := range ring {
		ring[k] = t.issue(route[k%4], ps[k%len(ps)], rec)
	}
	i := churnDepth
	for ; time.Now().Before(deadline); i++ {
		k := i % churnDepth
		t.collect(ring[k], rec)
		ring[k] = t.issue(route[k%4], ps[i%len(ps)], rec)
	}
	for j := 0; j < churnDepth; j++ {
		t.collect(ring[(i+j)%churnDepth], rec)
	}
	return []*tally{t}
}
