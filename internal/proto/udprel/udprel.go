// Package udprel is a user-written Open HPC++ protocol: reliable
// request/reply messaging over unreliable datagrams, with
// fragmentation, per-fragment acknowledgement, retransmission, and
// duplicate suppression.
//
// It exists to exercise the paper's custom-protocol claim (§3.2:
// "custom protocols are supported by having users write their own
// proto-classes that satisfy a standard interface"): the package lives
// entirely outside internal/core, registers itself into protocol pools
// through the public ProtoFactory interface, binds contexts through
// Context.RegisterBinding, and delivers requests through
// Context.Dispatch. Nothing in the ORB knows it exists.
package udprel

import (
	"errors"
	"sync"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/xdr"
)

// Wire format of one datagram:
//
//	magic   u32  'UREL'
//	type    u32  1=DATA 2=ACK
//	msgID   u64  sender-local message id
//	fragIdx u32
//	(DATA only)
//	fragCount u32
//	payload   opaque
const magic uint32 = 0x5552454c

const (
	ptData uint32 = 1
	ptAck  uint32 = 2
)

// Config tunes the ARQ machinery.
type Config struct {
	// RTO is the per-fragment retransmission timeout.
	RTO time.Duration
	// MaxTries bounds transmissions per fragment before giving up.
	MaxTries int
	// FragSize is the payload carried per datagram.
	FragSize int
	// Window is the number of unacknowledged fragments in flight.
	Window int
	// Clock drives the RTO and reply-deadline timers (default the real
	// clock). Tests inject a fake to exercise retransmission without
	// wall-clock waits.
	Clock clock.Clock
}

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{RTO: 40 * time.Millisecond, MaxTries: 10, FragSize: 8192, Window: 32}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.MaxTries <= 0 {
		c.MaxTries = d.MaxTries
	}
	if c.FragSize <= 0 {
		c.FragSize = d.FragSize
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Handler serves one complete inbound request message and returns the
// reply message.
type Handler func(from netsim.Addr, req []byte) []byte

// Message kinds inside the reliable layer.
const (
	mkRequest uint32 = 1
	mkReply   uint32 = 2
)

// Node is one endpoint: it can issue requests and, with a handler,
// serve them.
type Node struct {
	pc      *netsim.PacketConn
	cfg     Config
	handler Handler

	mu        sync.Mutex
	nextMsgID uint64
	nextReqID uint64
	pending   map[uint64]chan []byte // reqID -> reply payload
	acks      map[ackKey]chan struct{}
	rx        map[rxKey]*rxState
	// done remembers completed messages for a minute, for duplicate
	// suppression; doneFIFO holds the same keys in completion order, so
	// pruning pops expired entries off its front instead of scanning
	// the map.
	done     map[rxKey]struct{}
	doneFIFO []doneEntry
	doneHead int
	// pruneSteps counts the FIFO entries markDone has examined, so tests
	// can hold the per-message prune work constant.
	pruneSteps uint64
	closed     bool
	wg         sync.WaitGroup
}

type ackKey struct {
	to    netsim.Addr
	msgID uint64
	frag  uint32
}

type rxKey struct {
	from  netsim.Addr
	msgID uint64
}

type doneEntry struct {
	key rxKey
	at  time.Time
}

// doneTTL is how long a completed message is remembered: a duplicate
// arriving within it is suppressed.
const doneTTL = time.Minute

type rxState struct {
	frags   [][]byte
	missing int
}

// NewNode wraps a datagram socket. handler may be nil for pure clients.
func NewNode(pc *netsim.PacketConn, cfg Config, handler Handler) *Node {
	n := &Node{
		pc:      pc,
		cfg:     cfg.withDefaults(),
		handler: handler,
		pending: make(map[uint64]chan []byte),
		acks:    make(map[ackKey]chan struct{}),
		rx:      make(map[rxKey]*rxState),
		done:    make(map[rxKey]struct{}),
	}
	n.wg.Add(1)
	go n.readLoop()
	return n
}

// Close shuts the node down.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for id, ch := range n.pending {
		delete(n.pending, id)
		close(ch)
	}
	n.mu.Unlock()
	err := n.pc.Close()
	n.wg.Wait()
	return err
}

// ErrClosed is returned by requests on a closed node.
var ErrClosed = errors.New("udprel: node closed")

// ErrTimeout is returned when retransmissions are exhausted.
var ErrTimeout = errors.New("udprel: retransmissions exhausted")

// LocalAddr returns the underlying socket address.
func (n *Node) LocalAddr() netsim.Addr { return n.pc.LocalAddr() }

// Request sends req to the peer and waits for the correlated reply.
func (n *Node) Request(peer netsim.Addr, req []byte) ([]byte, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.nextReqID++
	reqID := n.nextReqID
	ch := make(chan []byte, 1)
	n.pending[reqID] = ch
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, reqID)
		n.mu.Unlock()
	}()

	if err := n.sendMessage(peer, encodeMessage(mkRequest, reqID, req)); err != nil {
		return nil, err
	}
	// The reply is itself reliably transferred; once it completes the
	// read loop hands it to us. Bound the wait by the worst-case
	// transfer the peer could still be making. The bound assumes the
	// reply fits in a few windows; replies vastly larger than
	// Window*FragSize on very slow links may need a larger RTO.
	deadline := time.Duration(n.cfg.MaxTries+2) * n.cfg.RTO * 4
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return reply, nil
	case <-clock.After(n.cfg.Clock, deadline):
		return nil, errs.Wrapf(errs.Transport, ErrTimeout, "udprel: no reply within %v", deadline)
	}
}

// sendMessage reliably transfers one message: fragment, window, ack,
// retransmit.
func (n *Node) sendMessage(peer netsim.Addr, msg []byte) error {
	n.mu.Lock()
	n.nextMsgID++
	msgID := n.nextMsgID
	n.mu.Unlock()

	frags := fragment(msg, n.cfg.FragSize)
	count := uint32(len(frags))

	sem := make(chan struct{}, n.cfg.Window)
	errs := make(chan error, len(frags))
	var wg sync.WaitGroup
	for i, f := range frags {
		wg.Add(1)
		sem <- struct{}{}
		go func(idx uint32, payload []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			errs <- n.sendFragment(peer, msgID, idx, count, payload)
		}(uint32(i), f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sendFragment transmits one fragment until acked or exhausted.
func (n *Node) sendFragment(peer netsim.Addr, msgID uint64, idx, count uint32, payload []byte) error {
	key := ackKey{to: peer, msgID: msgID, frag: idx}
	ackCh := make(chan struct{}, 1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.acks[key] = ackCh
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.acks, key)
		n.mu.Unlock()
	}()

	pkt := encodeData(msgID, idx, count, payload)
	for try := 0; try < n.cfg.MaxTries; try++ {
		if _, err := n.pc.WriteTo(pkt, peer); err != nil {
			return err
		}
		select {
		case <-ackCh:
			return nil
		case <-clock.After(n.cfg.Clock, n.cfg.RTO):
		}
	}
	return errs.Wrapf(errs.Transport, ErrTimeout, "udprel: fragment %d/%d of message %d to %v", idx+1, count, msgID, peer)
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, n.cfg.FragSize+64)
	for {
		nr, from, err := n.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		n.handleDatagram(from, buf[:nr])
	}
}

func (n *Node) handleDatagram(from netsim.Addr, pkt []byte) {
	d := xdr.NewDecoder(pkt)
	m, err := d.Uint32()
	if err != nil || m != magic {
		return
	}
	pt, err := d.Uint32()
	if err != nil {
		return
	}
	msgID, err := d.Uint64()
	if err != nil {
		return
	}
	frag, err := d.Uint32()
	if err != nil {
		return
	}
	switch pt {
	case ptAck:
		n.mu.Lock()
		ch, ok := n.acks[ackKey{to: from, msgID: msgID, frag: frag}]
		n.mu.Unlock()
		if ok {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	case ptData:
		count, err := d.Uint32()
		if err != nil || count == 0 || frag >= count || count > 1<<16 {
			return
		}
		payload, err := d.Opaque()
		if err != nil {
			return
		}
		// Always ack — even duplicates (the original ack may be lost).
		n.pc.WriteTo(encodeAck(msgID, frag), from)
		if msg, complete := n.assemble(from, msgID, frag, count, payload); complete {
			n.dispatch(from, msg)
		}
	}
}

// assemble stores a fragment; it returns the whole message exactly once.
func (n *Node) assemble(from netsim.Addr, msgID uint64, frag, count uint32, payload []byte) ([]byte, bool) {
	key := rxKey{from: from, msgID: msgID}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.done[key]; dup {
		return nil, false
	}
	st, ok := n.rx[key]
	if !ok {
		st = &rxState{frags: make([][]byte, count), missing: int(count)}
		n.rx[key] = st
	}
	if int(count) != len(st.frags) || st.frags[frag] != nil {
		return nil, false // inconsistent or duplicate fragment
	}
	st.frags[frag] = payload
	st.missing--
	if st.missing > 0 {
		return nil, false
	}
	delete(n.rx, key)
	n.markDone(key)
	var msg []byte
	for _, f := range st.frags {
		msg = append(msg, f...)
	}
	return msg, true
}

// markDone records a completed message for duplicate suppression and
// forgets the ones completed more than doneTTL ago. Completion times
// only grow, so the expired entries are the oldest: popping them off
// the front of the FIFO costs amortised O(1) per message, however many
// the table holds. Caller holds n.mu.
func (n *Node) markDone(key rxKey) {
	now := n.cfg.Clock.Now()
	cutoff := now.Add(-doneTTL)
	for n.doneHead < len(n.doneFIFO) {
		n.pruneSteps++
		if !n.doneFIFO[n.doneHead].at.Before(cutoff) {
			break
		}
		delete(n.done, n.doneFIFO[n.doneHead].key)
		n.doneFIFO[n.doneHead] = doneEntry{}
		n.doneHead++
	}
	if n.doneHead > len(n.doneFIFO)/2 {
		// Slide the live half down so the popped front is reused
		// instead of growing the backing array forever.
		n.doneFIFO = n.doneFIFO[:copy(n.doneFIFO, n.doneFIFO[n.doneHead:])]
		n.doneHead = 0
	}
	n.done[key] = struct{}{}
	n.doneFIFO = append(n.doneFIFO, doneEntry{key: key, at: now})
}

// dispatch routes a complete message: replies to waiting requesters,
// requests to the handler.
func (n *Node) dispatch(from netsim.Addr, msg []byte) {
	kind, reqID, body, err := decodeMessage(msg)
	if err != nil {
		return
	}
	switch kind {
	case mkReply:
		n.mu.Lock()
		ch, ok := n.pending[reqID]
		n.mu.Unlock()
		if ok {
			select {
			case ch <- body:
			default:
			}
		}
	case mkRequest:
		h := n.handler
		if h == nil {
			return
		}
		go func() {
			reply := h(from, body)
			// Reply delivery failures surface as the peer's timeout.
			_ = n.sendMessage(from, encodeMessage(mkReply, reqID, reply))
		}()
	}
}

// --- encoding helpers ---------------------------------------------------

func fragment(msg []byte, size int) [][]byte {
	if len(msg) == 0 {
		return [][]byte{{}}
	}
	var out [][]byte
	for off := 0; off < len(msg); off += size {
		end := off + size
		if end > len(msg) {
			end = len(msg)
		}
		out = append(out, msg[off:end])
	}
	return out
}

func encodeData(msgID uint64, frag, count uint32, payload []byte) []byte {
	e := xdr.NewEncoder(28 + len(payload))
	e.PutUint32(magic)
	e.PutUint32(ptData)
	e.PutUint64(msgID)
	e.PutUint32(frag)
	e.PutUint32(count)
	e.PutOpaque(payload)
	return e.Bytes()
}

func encodeAck(msgID uint64, frag uint32) []byte {
	e := xdr.NewEncoder(20)
	e.PutUint32(magic)
	e.PutUint32(ptAck)
	e.PutUint64(msgID)
	e.PutUint32(frag)
	return e.Bytes()
}

func encodeMessage(kind uint32, reqID uint64, body []byte) []byte {
	e := xdr.NewEncoder(16 + len(body))
	e.PutUint32(kind)
	e.PutUint64(reqID)
	e.PutOpaque(body)
	return e.Bytes()
}

func decodeMessage(msg []byte) (kind uint32, reqID uint64, body []byte, err error) {
	d := xdr.NewDecoder(msg)
	if kind, err = d.Uint32(); err != nil {
		return
	}
	if reqID, err = d.Uint64(); err != nil {
		return
	}
	body, err = d.Opaque()
	return
}
