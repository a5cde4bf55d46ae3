package main

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"time"

	"openhpcxx/internal/bench"
	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/proto/udprel"
	"openhpcxx/internal/transport"
	"openhpcxx/internal/wire"
)

// row is one isolated per-layer measurement: a layer's public functions
// called directly at the workload's message size.
type row struct {
	name string
	op   func() error
}

// rowResult is the median of per-batch mean op times, and the allocation
// count and bytes per op over every batch.
type rowResult struct {
	ns, allocs, bytes float64
	ops               int
}

// measureRow calibrates a batch to about a millisecond, then runs
// batches for budget (at least minBatches).
func measureRow(op func() error, budget time.Duration) (rowResult, error) {
	const minBatches = 9
	n, start := 0, time.Now()
	for n == 0 || time.Since(start) < 20*time.Millisecond {
		if err := op(); err != nil {
			return rowResult{}, err
		}
		n++
	}
	batch := int(time.Millisecond / (time.Since(start) / time.Duration(n)))
	if batch < 1 {
		batch = 1
	}
	means := make([]float64, 0, 4*int(budget/time.Millisecond)+minBatches)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := time.Now().Add(budget)
	for len(means) < minBatches || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return rowResult{}, err
			}
		}
		means = append(means, float64(time.Since(t0))/float64(batch))
	}
	runtime.ReadMemStats(&m1)
	ops := batch * len(means)
	sort.Float64s(means)
	return rowResult{
		ns:     means[len(means)/2],
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		ops:    ops,
	}, nil
}

// request is the exchange request frame a client stub would send.
func request(obj *core.ObjectRef, args []byte) *wire.Message {
	return &wire.Message{Type: wire.TRequest, Object: string(obj.Object), Method: "exchange", Epoch: obj.Epoch, Body: args}
}

func echoFrame(m *wire.Message) *wire.Message {
	return &wire.Message{Type: wire.TReply, Object: m.Object, Method: m.Method, RequestID: m.RequestID, Body: m.Body}
}

func expectReply(m *wire.Message, err error) error {
	if err != nil {
		return err
	}
	if m == nil || m.Type != wire.TReply {
		return errs.New(errs.Internal, "perfbench: isolated row got no reply frame")
	}
	return nil
}

// isolatedRows builds the rows for one message size. The returned
// cleanup closes every fixture the rows opened.
func isolatedRows(w *world, args []byte) (rows []row, cleanup func(), err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	msg := request(w.object, args)

	// Server dispatch of a prebuilt frame into the workload's servant.
	rows = append(rows, row{"core.dispatch", func() error { return expectReply(w.server.Dispatch(msg), nil) }})

	// Protocol selection over the Figure 5 four-entry table.
	d, err := bench.NewFig5Deployment(netsim.ProfileUnshaped)
	if err != nil {
		return nil, nil, err
	}
	closers = append(closers, d.Close)
	var table []core.ProtoEntry
	var obj *core.ObjectRef
	for _, s := range bench.SeriesNames() {
		gp, err := d.GlobalPtr(s)
		if err != nil {
			return nil, nil, err
		}
		ref := gp.Ref()
		gp.Release()
		table = append(table, ref.Protocols...)
		if s == bench.SeriesNexus {
			obj = ref
		}
	}
	obj.Protocols = table
	sel := d.Client.NewGlobalPtr(obj)
	rows = append(rows, row{"core.select", func() error {
		sel.Invalidate()
		_, err := sel.SelectedProtocol()
		return err
	}})

	// Wire framing through a buffer.
	var buf bytes.Buffer
	rows = append(rows, row{"wire.roundtrip", func() error {
		buf.Reset()
		if err := wire.Write(&buf, msg); err != nil {
			return err
		}
		_, err := wire.Read(&buf)
		return err
	}})

	// The frame's bytes through an unshaped netsim pipe.
	buf.Reset()
	if err := wire.Write(&buf, msg); err != nil {
		return nil, nil, err
	}
	raw := append([]byte(nil), buf.Bytes()...)
	sink := make([]byte, len(raw))
	a, b := netsim.Pipe(netsim.ProfileUnshaped, netsim.Addr{Machine: "client-m", Port: 1}, netsim.Addr{Machine: "server-m", Port: 1})
	closers = append(closers, func() { a.Close(); b.Close() })
	rows = append(rows, row{"netsim.pipe", func() error {
		if _, err := a.Write(raw); err != nil {
			return err
		}
		_, err := io.ReadFull(b, sink)
		return err
	}})

	// A mux round trip into an echo server, over netsim and over shm.
	n := twoMachines()
	l, err := n.Listen("server-m", 0)
	if err != nil {
		return nil, nil, err
	}
	srv := transport.Serve(l, echoFrame)
	closers = append(closers, func() { srv.Close() })
	conn, err := n.Dial("client-m", l.Addr().(netsim.Addr))
	if err != nil {
		return nil, nil, err
	}
	mux := transport.NewMux(conn)
	closers = append(closers, func() { mux.Close() })
	rows = append(rows, row{"transport.mux_call", func() error { return expectReply(mux.Call(msg)) }})

	shm := transport.NewSHM()
	sl, err := shm.Listen("perfbench")
	if err != nil {
		return nil, nil, err
	}
	ssrv := transport.Serve(sl, echoFrame)
	closers = append(closers, func() { ssrv.Close() })
	sconn, err := shm.Dial("perfbench")
	if err != nil {
		return nil, nil, err
	}
	smux := transport.NewMux(sconn)
	closers = append(closers, func() { smux.Close() })
	rows = append(rows, row{"transport.shm_call", func() error { return expectReply(smux.Call(msg)) }})

	// A udprel request/reply over a netsim datagram socket pair.
	pcS, err := n.ListenPacket("server-m", 0)
	if err != nil {
		return nil, nil, err
	}
	pcC, err := n.ListenPacket("client-m", 0)
	if err != nil {
		return nil, nil, err
	}
	us := udprel.NewNode(pcS, udprel.DefaultConfig(), func(_ netsim.Addr, req []byte) []byte { return req })
	uc := udprel.NewNode(pcC, udprel.DefaultConfig(), nil)
	closers = append(closers, func() { uc.Close(); us.Close() })
	rows = append(rows, row{"udprel.request", func() error {
		out, err := uc.Request(pcS.LocalAddr(), raw)
		if err == nil && len(out) != len(raw) {
			err = errs.New(errs.Internal, "perfbench: udprel echo changed length")
		}
		return err
	}})

	// Each capability's request transform, client Process then server
	// Unprocess, on the request body.
	f := &capability.Frame{Object: msg.Object, Method: msg.Method, Dir: capability.Request}
	for _, c := range []capability.Capability{
		capability.NewQuota(0, time.Time{}),
		capability.MustNewAuth("perfbench", []byte("perfbench-key"), capability.ScopeAlways),
		capability.NewRandomEncrypt(capability.ScopeAlways),
	} {
		cfg, err := c.Config()
		if err != nil {
			return nil, nil, err
		}
		server, err := capability.New(c.Kind(), cfg)
		if err != nil {
			return nil, nil, err
		}
		client := c
		rows = append(rows, row{"capability." + c.Kind() + ".isolated", func() error {
			body, env, err := client.Process(f, args)
			if err != nil {
				return err
			}
			_, err = server.Unprocess(f, env, body)
			return err
		}})
	}
	return rows, cleanup, nil
}

// udprelDoneTable is how many completed messages a udprel node keeps
// before it starts pruning its duplicate table on every message.
const udprelDoneTable = 8192

// udprelBusy times small requests on a node pair that has already
// completed udprelDoneTable exchanges: the per-request cost a
// long-running udprel endpoint pays, which a fresh pair never shows.
func udprelBusy(args []byte, timed int) (float64, error) {
	n := twoMachines()
	pcS, err := n.ListenPacket("server-m", 0)
	if err != nil {
		return 0, err
	}
	pcC, err := n.ListenPacket("client-m", 0)
	if err != nil {
		return 0, err
	}
	us := udprel.NewNode(pcS, udprel.DefaultConfig(), func(_ netsim.Addr, req []byte) []byte { return req })
	defer us.Close()
	uc := udprel.NewNode(pcC, udprel.DefaultConfig(), nil)
	defer uc.Close()
	var start time.Time
	for i := 0; i < udprelDoneTable+timed; i++ {
		if i == udprelDoneTable {
			start = time.Now()
		}
		if _, err := uc.Request(pcS.LocalAddr(), args); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(timed), nil
}
