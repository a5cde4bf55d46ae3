package core

import (
	"context"
	"errors"

	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// OneWayProtocol is implemented by protocol objects that can deliver a
// request without waiting for a reply — the ORB surface of Nexus's
// one-way remote service requests. The built-in stream, shm, and nexus
// protocols implement it; protocols that cannot (or glue chains over
// such a base) report ErrOneWayUnsupported.
type OneWayProtocol interface {
	Protocol
	Post(m *wire.Message) error
}

// ErrOneWayUnsupported is returned by Post when the selected protocol
// cannot deliver one-way requests.
var ErrOneWayUnsupported = errors.New("core: selected protocol does not support one-way requests")

// Post invokes a method without waiting for any result. Delivery is
// at-most-once with no failure notification beyond transport errors;
// method errors on the server are discarded. The request still flows
// through the selected protocol — including a glue protocol's
// capability chain, so one-way calls are metered and protected exactly
// like two-way ones.
func (g *GlobalPtr) Post(method string, args []byte) error {
	root := g.host.rt.Tracer().StartRoot(obs.KindClient, "post")
	if root != nil {
		root.SetRPC(string(g.Object()), method)
		root.SetBytes(len(args))
	}
	err := g.post(root, method, args)
	root.SetErr(err)
	root.End()
	return err
}

func (g *GlobalPtr) post(root *obs.Active, method string, args []byte) error {
	sel := root.Child("select")
	p, err := g.prepare(context.Background(), wire.TControl, method, args)
	if err != nil {
		sel.SetErr(err)
		sel.End()
		return err
	}
	ow, ok := p.proto.(OneWayProtocol)
	if !ok {
		sel.End()
		return ErrOneWayUnsupported
	}
	var send *obs.Active
	if root != nil {
		sel.SetProto(string(p.proto.ID()), p.key)
		sel.End()
		stampTrace(g.host.rt.Tracer(), p.req, root)
		send = root.Child(string(p.proto.ID()))
		send.SetProto(string(p.proto.ID()), p.key)
		send.SetBytes(len(args))
	}
	p.pm.oneway.Inc()
	p.pm.reqBytes.Add(uint64(len(args)))
	p.em.addBytes(len(args), g.host.rt.Clock().Now())
	if err := ow.Post(p.req); err != nil {
		send.SetErr(err)
		send.End()
		p.pm.transportErrors.Inc()
		g.Invalidate()
		return err
	}
	send.End()
	return nil
}

// handleOneWay executes a one-way request: same path as handleRequest
// but all results and errors are discarded and no frame travels back.
func (c *Context) handleOneWay(m *wire.Message, ds *obs.Active) {
	c.rt.srv.oneway.Inc()
	req := *m
	req.Type = wire.TRequest
	if _, err := c.handleRequest(&req, ds); err != nil {
		c.rt.srv.onewayFaults.Inc()
	}
}
