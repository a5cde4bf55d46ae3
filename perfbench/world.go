package main

import (
	"math/rand"
	"sync"
	"time"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/migrate"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/xdr"
)

// payload is one seeded request and the checksum its reply must carry.
type payload struct {
	vals *core.Int32Slice
	sum  uint64
}

func checksum(v []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	return h
}

// makePayloads draws count arrays of each size from the seed.
func makePayloads(seed int64, sizes []int, count int) [][]payload {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]payload, len(sizes))
	for i, n := range sizes {
		for j := 0; j < count; j++ {
			v := make([]int32, n)
			for k := range v {
				v[k] = int32(rng.Uint32())
			}
			out[i] = append(out[i], payload{vals: &core.Int32Slice{V: v}, sum: checksum(v)})
		}
	}
	return out
}

// world is one workload's deployment: a runtime on an in-process netsim
// network, the global pointers each caller goes round-robin over, and a
// context hosting a static servant for the isolated dispatch row.
type world struct {
	rt     *core.Runtime
	gps    [][]*core.GlobalPtr // per caller
	server *core.Context
	object *core.ObjectRef
	mover  *mover
}

func (w *world) close() {
	if w.mover != nil {
		w.mover.halt()
	}
	w.rt.Close()
}

// twoMachines is a client and a server machine on one unshaped LAN.
func twoMachines() *netsim.Network {
	n := netsim.New()
	n.AddLAN("lan", "campus", netsim.ProfileUnshaped)
	n.MustAddMachine("client-m", "lan")
	n.MustAddMachine("server-m", "lan")
	return n
}

func newRuntime(n *netsim.Network, rec *recorder) *core.Runtime {
	rt := core.NewRuntime(n, "perfbench")
	capability.Install(rt.DefaultPool())
	rt.RegisterIface(exchangeIface, exchangeActivator(rec))
	return rt
}

func export(ctx *core.Context, rec *recorder) (*core.Servant, error) {
	impl, methods := exchangeActivator(rec)()
	return ctx.Export(exchangeIface, impl, methods)
}

// newContext creates a context and runs its bind steps in order.
func newContext(rt *core.Runtime, name string, m netsim.MachineID, binds ...func(*core.Context) error) (*core.Context, error) {
	ctx, err := rt.NewContext(name, m)
	if err != nil {
		return nil, err
	}
	for _, b := range binds {
		if err := b(ctx); err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

func bindSHM(c *core.Context) error    { return c.BindSHM() }
func bindStream(c *core.Context) error { return c.BindSim(0) }
func bindNexus(c *core.Context) error  { return c.BindNexusSim(0) }

// firstCall selects a protocol and dials for every GP, and checks that
// each GP is bound to the protocol the workload means it to exercise.
func (w *world) firstCall(p payload, want [][]core.ProtoID) error {
	for c, gps := range w.gps {
		for i, gp := range gps {
			reply, err := core.Call[*core.Int32Slice, core.Int32Slice](gp, "exchange", p.vals)
			if err == nil {
				err = matches(p, reply)
			}
			if err != nil {
				return errs.Wrapf(errs.CodeOf(err), err, "perfbench: first call on GP %d", i)
			}
			if id, err := gp.SelectedProtocol(); err != nil || id != want[c][i] {
				return errs.Newf(errs.Internal, "perfbench: GP %d selected %q (%v), want %q", i, id, err, want[c][i])
			}
		}
	}
	return nil
}

// buildRPCSmall: two callers, each with its own GP on shm (servant on
// the caller's machine), hpcx-tcp and nexus-tcp (servant across the
// link). udprel is measured by isolated rows instead: its duplicate
// table makes every message cost more than the last once a node has
// completed 8192 messages in a minute, so a run through it never
// settles.
func buildRPCSmall(rec *recorder, first payload) (w *world, err error) {
	rt := newRuntime(twoMachines(), rec)
	defer func() {
		if err != nil {
			rt.Close()
		}
	}()
	client, err := rt.NewContext("client", "client-m")
	if err != nil {
		return nil, err
	}
	local, err := newContext(rt, "local", "client-m", bindSHM)
	if err != nil {
		return nil, err
	}
	remote, err := newContext(rt, "remote", "server-m", bindStream, bindNexus)
	if err != nil {
		return nil, err
	}
	ls, err := export(local, rec)
	if err != nil {
		return nil, err
	}
	rs, err := export(remote, rec)
	if err != nil {
		return nil, err
	}
	var refs []*core.ObjectRef
	for i, entry := range []func() (core.ProtoEntry, error){local.EntrySHM, remote.EntryStream, remote.EntryNexus} {
		e, err := entry()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			refs = append(refs, local.NewRef(ls, e))
		} else {
			refs = append(refs, remote.NewRef(rs, e))
		}
	}
	want := []core.ProtoID{core.ProtoSHM, core.ProtoStream, core.ProtoNexus}
	w = &world{rt: rt, server: remote, object: remote.NewRef(rs)}
	for c := 0; c < 2; c++ {
		var gps []*core.GlobalPtr
		for _, ref := range refs {
			gps = append(gps, client.NewGlobalPtr(ref))
		}
		w.gps = append(w.gps, gps)
	}
	return w, w.firstCall(first, [][]core.ProtoID{want, want})
}

// buildBulk: the Figure 5 testbed on the unshaped profile, with the
// benchmark's servant exported beside the deployment's own and reached
// through each series' protocol table. Traced worlds swap the glue
// entries for the same capability chains built from timed kinds.
func buildBulk(rec *recorder, first payload) (w *world, err error) {
	d, err := bench.NewFig5Deployment(netsim.ProfileUnshaped)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	local, ok1 := d.Runtime.Context("server-local")
	remote, ok2 := d.Runtime.Context("server")
	if !ok1 || !ok2 {
		return nil, errs.New(errs.Internal, "perfbench: Figure 5 deployment lacks its server contexts")
	}
	ls, err := export(local, rec)
	if err != nil {
		return nil, err
	}
	rs, err := export(remote, rec)
	if err != nil {
		return nil, err
	}
	stream, err := remote.EntryStream()
	if err != nil {
		return nil, err
	}
	// These chains mirror bench.NewFig5Deployment's glue series.
	timed := map[string][]capability.Capability{
		bench.SeriesGlueTimeout: caps(rec, capability.NewQuota(0, time.Time{})),
		bench.SeriesGlueSecurity: caps(rec, capability.NewQuota(0, time.Time{}),
			capability.NewRandomEncrypt(capability.ScopeAlways)),
	}
	w = &world{rt: d.Runtime, server: remote, object: remote.NewRef(rs)}
	var gps []*core.GlobalPtr
	var want []core.ProtoID
	for _, series := range bench.SeriesNames() {
		gp0, err := d.GlobalPtr(series)
		if err != nil {
			return nil, err
		}
		ref := gp0.Ref()
		gp0.Release()
		host, s := remote, rs
		if series == bench.SeriesSharedMemory {
			host, s = local, ls
		}
		if chain, ok := timed[series]; ok && rec != nil {
			e, err := capability.GlueEntry(remote, "perfbench-"+series, stream, chain...)
			if err != nil {
				return nil, err
			}
			ref.Protocols = []core.ProtoEntry{e}
		}
		gps = append(gps, d.Client.NewGlobalPtr(host.NewRef(s, ref.Protocols...)))
		want = append(want, ref.Protocols[0].ID)
	}
	w.gps = [][]*core.GlobalPtr{gps}
	return w, w.firstCall(first, [][]core.ProtoID{want})
}

// buildChurn: one caller with a GP whose servant migrates between the
// caller's machine (shm) and the server machine (hpcx-tcp), a GP that
// batches through the coalescer, and a GP through a quota + auth glue
// chain over hpcx-tcp.
func buildChurn(rec *recorder, first payload) (w *world, err error) {
	rt := newRuntime(twoMachines(), rec)
	defer func() {
		if err != nil {
			rt.Close()
		}
	}()
	client, err := rt.NewContext("client", "client-m")
	if err != nil {
		return nil, err
	}
	near, err := newContext(rt, "near", "client-m", bindSHM, bindStream)
	if err != nil {
		return nil, err
	}
	far, err := newContext(rt, "far", "server-m", bindSHM, bindStream)
	if err != nil {
		return nil, err
	}
	ms, err := export(near, rec)
	if err != nil {
		return nil, err
	}
	fs, err := export(far, rec)
	if err != nil {
		return nil, err
	}
	nearSHM, err := near.EntrySHM()
	if err != nil {
		return nil, err
	}
	nearStream, err := near.EntryStream()
	if err != nil {
		return nil, err
	}
	farStream, err := far.EntryStream()
	if err != nil {
		return nil, err
	}
	glue, err := capability.GlueEntry(far, "perfbench-churn", farStream, caps(rec,
		capability.NewQuota(0, time.Time{}),
		capability.MustNewAuth("perfbench", []byte("perfbench-key"), capability.ScopeAlways))...)
	if err != nil {
		return nil, err
	}
	moving := near.NewRef(ms, nearSHM, nearStream)
	gpMove := client.NewGlobalPtr(moving)
	gpBatch := client.NewGlobalPtr(far.NewRef(fs, farStream))
	policy := transport.DefaultBatchPolicy()
	gpBatch.SetBatchPolicy(&policy)
	gpGlue := client.NewGlobalPtr(far.NewRef(fs, glue))
	w = &world{
		rt:     rt,
		gps:    [][]*core.GlobalPtr{{gpMove, gpBatch, gpGlue}},
		server: far,
		object: far.NewRef(fs),
		mover:  &mover{src: near, dst: far, ref: moving, rec: rec},
	}
	return w, w.firstCall(first, [][]core.ProtoID{{core.ProtoSHM, core.ProtoStream, core.ProtoGlue}})
}

// mover migrates one servant back and forth between two contexts on a
// fixed period while it runs.
type mover struct {
	src, dst *core.Context
	rec      *recorder

	mu    sync.Mutex
	ref   *core.ObjectRef
	moves int
	err   error

	stop chan struct{}
	done chan struct{}
}

func (m *mover) start(every time.Duration) {
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
			m.mu.Lock()
			start := time.Now()
			ref, err := migrate.MoveLocal(m.src, m.ref, m.dst)
			m.rec.add("migrate.move_ns", time.Since(start))
			if err != nil {
				m.err = err
				m.mu.Unlock()
				return
			}
			m.ref, m.src, m.dst = ref, m.dst, m.src
			m.moves++
			m.mu.Unlock()
		}
	}()
}

// halt stops the mover and waits for it; halting a stopped mover is a
// no-op.
func (m *mover) halt() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
}

func (m *mover) state() (moves int, err error) {
	if m == nil {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.moves, m.err
}

// frame marshals a payload the way the client stub does.
func frame(p payload) []byte {
	b, err := xdr.Marshal(p.vals)
	if err != nil {
		panic(err) // Int32Slice marshaling cannot fail
	}
	return b
}
