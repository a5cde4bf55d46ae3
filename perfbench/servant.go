package main

import (
	"time"

	"openhpcxx/internal/capability"
	"openhpcxx/internal/core"
	"openhpcxx/internal/xdr"
)

// exchangeIface names the benchmark's servant: the paper's exchange of
// an integer array, echoed back.
const exchangeIface = "perfbench.Exchange"

type exchangeImpl struct{}

// echo is the servant body: the paper's exchange returns the array.
func echo(in *core.Int32Slice) *core.Int32Slice { return in }

func (exchangeImpl) Snapshot() ([]byte, error) { return nil, nil }
func (exchangeImpl) Restore([]byte) error      { return nil }

// exchangeActivator builds the servant. Its one method times the server
// stub (XDR decode and encode) apart from the servant body when rec is
// set.
func exchangeActivator(rec *recorder) core.Activator {
	return func() (any, map[string]core.Method) {
		return exchangeImpl{}, map[string]core.Method{"exchange": func(args []byte) ([]byte, error) {
			in := new(core.Int32Slice)
			if rec == nil {
				if err := xdr.Unmarshal(args, in); err != nil {
					return nil, err
				}
				return xdr.Marshal(echo(in))
			}
			t0 := time.Now()
			if err := xdr.Unmarshal(args, in); err != nil {
				return nil, err
			}
			t1 := time.Now()
			out := echo(in)
			t2 := time.Now()
			b, err := xdr.Marshal(out)
			rec.add("server_stub.ns", t1.Sub(t0)+time.Since(t2))
			rec.add("servant.ns", t2.Sub(t1))
			return b, err
		}}
	}
}

// Timed capability kinds wrap the built-in quota, auth and encrypt
// capabilities and record how long each Process and Unprocess takes.
// Which side runs a transform follows from the operation and the frame
// direction: the client processes requests and un-processes replies.
const timedPrefix = "perfbench."

var timedKinds = []string{capability.KindQuota, capability.KindAuth, capability.KindEncrypt}

type timedCap struct {
	capability.Capability
	rec  *recorder
	name string // "capability.<kind>."
}

func (t *timedCap) Kind() string { return timedPrefix + t.Capability.Kind() }

func (t *timedCap) Process(f *capability.Frame, body []byte) ([]byte, []byte, error) {
	start := time.Now()
	nb, env, err := t.Capability.Process(f, body)
	side := "server.process"
	if f.Dir == capability.Request {
		side = "client.process"
	}
	t.rec.add(t.name+side, time.Since(start))
	return nb, env, err
}

func (t *timedCap) Unprocess(f *capability.Frame, env, body []byte) ([]byte, error) {
	start := time.Now()
	nb, err := t.Capability.Unprocess(f, env, body)
	side := "client.unprocess"
	if f.Dir == capability.Request {
		side = "server.unprocess"
	}
	t.rec.add(t.name+side, time.Since(start))
	return nb, err
}

// Grant and Refund pass the optional capability interfaces through.
func (t *timedCap) Grant(owner string) error {
	if ex, ok := t.Capability.(capability.Exclusive); ok {
		return ex.Grant(owner)
	}
	return nil
}

func (t *timedCap) Refund(f *capability.Frame) {
	if r, ok := t.Capability.(capability.Refunder); ok {
		r.Refund(f)
	}
}

// registerTimedKinds installs the timed kinds. Both ends of a glue chain
// rebuild their capabilities from the kind names in the reference, so
// client and server copies are timed alike.
func registerTimedKinds(rec *recorder) {
	for _, kind := range timedKinds {
		capability.RegisterKind(timedPrefix+kind, func(cfg []byte) (capability.Capability, error) {
			c, err := capability.New(kind, cfg)
			if err != nil {
				return nil, err
			}
			return &timedCap{Capability: c, rec: rec, name: "capability." + kind + "."}, nil
		})
	}
}

// caps builds a capability chain, timed when rec is set.
func caps(rec *recorder, cs ...capability.Capability) []capability.Capability {
	if rec == nil {
		return cs
	}
	out := make([]capability.Capability, len(cs))
	for i, c := range cs {
		out[i] = &timedCap{Capability: c, rec: rec, name: "capability." + c.Kind() + "."}
	}
	return out
}
