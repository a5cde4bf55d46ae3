// Adaptive micro-batching: a client-side coalescer that packs many
// small requests bound for one peer into wire.TBatch frames.
//
// The flush is self-clocked, like Nagle's algorithm and continuous
// batching in serving systems: a request ships at once when none of the
// coalescer's frames is awaiting its reply; otherwise it queues, and
// the queue ships when the reply it waits behind lands (the last one
// out, when MaxDelay has put several frames in flight), when it
// reaches MaxMessages or MaxBytes, or when MaxDelay runs out. A lone
// request therefore pays no delay at all, while requests that arrive
// during a round trip ride the next frame together and pay per-frame
// latency and framing overhead once. The reply stream paces the
// flushes, not a timer — which matters because a sub-millisecond timer
// on a host with coarse timer slack fires late, and a timer-only flush
// then idles the connection for the overshoot. MaxDelay stays as the
// upper bound for a reply that is slow to land. All knobs are steerable
// per object reference through the ORB (GlobalPtr.SetBatchPolicy), in
// the spirit of the paper's Open Implementation: batching is one more
// communication decision the application can reach in and turn.
package transport

import (
	"errors"
	"sync"
	"time"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// BatchPolicy sets the coalescer's flush watermarks. The zero value of
// a field selects its default.
type BatchPolicy struct {
	// MaxMessages flushes when this many requests are queued
	// (default 16, capped at wire.MaxBatchMessages).
	MaxMessages int
	// MaxBytes flushes when the queued payload reaches this size
	// (default 64 KiB). A single request larger than MaxBytes still
	// ships — alone in its batch.
	MaxBytes int
	// MaxDelay bounds how long a request queued behind an in-flight
	// frame waits for that frame's reply (default 200µs).
	MaxDelay time.Duration
}

// Defaults for BatchPolicy fields.
const (
	DefaultBatchMessages = 16
	DefaultBatchBytes    = 64 << 10
	DefaultBatchDelay    = 200 * time.Microsecond
)

// DefaultBatchPolicy returns a policy with every watermark at its
// default — the "just turn batching on" value.
func DefaultBatchPolicy() BatchPolicy { return BatchPolicy{}.withDefaults() }

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxMessages <= 0 {
		p.MaxMessages = DefaultBatchMessages
	}
	if p.MaxMessages > wire.MaxBatchMessages {
		p.MaxMessages = wire.MaxBatchMessages
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = DefaultBatchBytes
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultBatchDelay
	}
	return p
}

// ErrCoalescerClosed is returned by Begin on a closed coalescer.
var ErrCoalescerClosed = errors.New("transport: coalescer closed")

// batchItem is one queued request and its completion handle.
type batchItem struct {
	msg *wire.Message
	p   *pendingItem
}

// pendingItem resolves when its sub-reply is demultiplexed from the
// batch reply. Same single-assignment discipline as PendingCall.
type pendingItem struct {
	once  sync.Once
	done  chan struct{}
	reply *wire.Message
	err   error
}

func newPendingItem() *pendingItem { return &pendingItem{done: make(chan struct{})} }

func (p *pendingItem) Done() <-chan struct{} { return p.done }

func (p *pendingItem) Reply() (*wire.Message, error) {
	<-p.done
	return p.reply, p.err
}

func (p *pendingItem) resolve(reply *wire.Message, err error) {
	p.once.Do(func() {
		p.reply, p.err = reply, err
		close(p.done)
	})
}

// Coalescer batches requests headed for one peer. send issues one
// TBatch frame and returns its completion handle — normally a closure
// over Mux.Begin (plus whatever redial logic the protocol object
// keeps). A Coalescer is safe for concurrent use.
type Coalescer struct {
	send   func(*wire.Message) (Pending, error)
	policy BatchPolicy
	tracer *obs.Tracer // optional: records per-request "batch" spans

	mu    sync.Mutex
	queue []batchItem
	bytes int
	// inflight counts frames sent whose reply (or failure) has not
	// landed: the clock the queue flushes on.
	inflight int
	timer    *time.Timer
	closed   bool
}

// NewCoalescer builds a coalescer flushing through send under policy.
func NewCoalescer(send func(*wire.Message) (Pending, error), policy BatchPolicy) *Coalescer {
	return &Coalescer{send: send, policy: policy.withDefaults()}
}

// Policy returns the effective (defaulted) policy.
func (c *Coalescer) Policy() BatchPolicy { return c.policy }

// Stats reports the coalescer's current residency: how many requests
// are waiting for a flush watermark and their queued payload bytes.
// Introspection only — the numbers are stale the moment the lock drops.
func (c *Coalescer) Stats() (queued, queuedBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue), c.bytes
}

// InFlight reports how many of the coalescer's frames are awaiting
// their reply.
func (c *Coalescer) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// SetTracer installs the tracer used to record, for every traced
// request riding in a real batch, a "batch" span carrying the coalesced
// frame's size. Call before traffic; nil disables.
func (c *Coalescer) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// Begin queues msg for the next batch and returns its completion
// handle. Only two-way requests belong in batches; callers keep
// one-way traffic on the direct path.
func (c *Coalescer) Begin(msg *wire.Message) (Pending, error) {
	if msg.Type != wire.TRequest {
		return nil, errs.Newf(errs.BadRequest, "transport: cannot batch %v frame", msg.Type)
	}
	item := batchItem{msg: msg, p: newPendingItem()}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoalescerClosed
	}
	c.queue = append(c.queue, item)
	c.bytes += len(msg.Body) + len(msg.Object) + len(msg.Method) + 64
	var flush []batchItem
	if c.inflight == 0 || len(c.queue) >= c.policy.MaxMessages || c.bytes >= c.policy.MaxBytes {
		flush = c.takeLocked()
	} else if c.timer == nil {
		// Queued behind an in-flight frame: its reply normally flushes
		// the queue, the delay watermark bounds the wait.
		c.timer = time.AfterFunc(c.policy.MaxDelay, c.Flush)
	}
	c.mu.Unlock()

	c.ship(flush)
	return item.p, nil
}

// Call is the synchronous convenience over Begin.
func (c *Coalescer) Call(msg *wire.Message) (*wire.Message, error) {
	p, err := c.Begin(msg)
	if err != nil {
		return nil, err
	}
	return p.Reply()
}

// Flush forces out whatever is queued, regardless of watermarks.
func (c *Coalescer) Flush() {
	c.mu.Lock()
	flush := c.takeLocked()
	c.mu.Unlock()
	c.ship(flush)
}

// takeLocked removes the current queue for dispatch and counts the
// frame it becomes as in flight. Caller holds mu.
func (c *Coalescer) takeLocked() []batchItem {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if len(c.queue) == 0 {
		return nil
	}
	q := c.queue
	c.queue = nil
	c.bytes = 0
	c.inflight++
	return q
}

// landed accounts one frame's reply or failure. When it was the last
// frame in flight, the pipe is empty and whatever queued behind it is
// taken to ship next; while other frames are still out, the queue
// keeps filling until one of the watermarks trips or the last of them
// lands.
func (c *Coalescer) landed() []batchItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if c.inflight > 0 {
		return nil
	}
	return c.takeLocked()
}

// ship sends items (already counted in flight) as one frame and leaves
// a goroutine to await its reply. A frame that fails before reaching
// the wire has landed too, so the queue behind it ships next.
func (c *Coalescer) ship(items []batchItem) {
	for items != nil {
		p, err := c.send1(items)
		if err == nil {
			go c.await(p, items)
			return
		}
		c.failAll(items, err)
		items = c.landed()
	}
}

// send1 issues one frame for items. A batch of one skips TBatch framing
// entirely — adaptivity means a lone caller never pays the batch
// envelope.
func (c *Coalescer) send1(items []batchItem) (Pending, error) {
	if len(items) == 1 {
		return c.send(items[0].msg)
	}
	msgs := make([]*wire.Message, len(items))
	for i, it := range items {
		msgs[i] = it.msg
	}
	if tr := c.tracer; tr.Enabled() {
		// Every traced rider gets a "batch" span: the trace shows not just
		// that the request was coalesced but with how much company.
		for _, m := range msgs {
			sp := tr.StartChild(obs.TraceID(m.TraceID), obs.SpanID(m.SpanID), obs.KindClient, "batch")
			sp.SetHint(m.KeepHint())
			sp.SetBatch(len(msgs))
			sp.SetBytes(len(m.Body))
			sp.End()
		}
	}
	frame, err := wire.EncodeBatch(msgs)
	if err != nil {
		return nil, err
	}
	return c.send(frame)
}

// await waits for one frame's reply, ships the queue that built up
// behind it, then demultiplexes the reply to the frame's items by
// position.
func (c *Coalescer) await(p Pending, items []batchItem) {
	reply, err := p.Reply()
	c.ship(c.landed())
	if err != nil {
		c.failAll(items, err)
		return
	}
	if len(items) == 1 {
		items[0].p.resolve(reply, nil)
		return
	}
	if reply.Type != wire.TBatch {
		// A whole-batch fault (e.g. the peer predates TBatch) fans out
		// to every item; per-call faults arrive inside the batch instead.
		c.failAll(items, errs.Newf(errs.Codec, "transport: batch reply is %v frame", reply.Type))
		return
	}
	subs, err := wire.DecodeBatch(reply)
	if err != nil {
		c.failAll(items, err)
		return
	}
	if len(subs) != len(items) {
		c.failAll(items, errs.Newf(errs.Codec, "transport: batch reply has %d entries, want %d", len(subs), len(items)))
		return
	}
	for i, it := range items {
		it.p.resolve(subs[i], nil)
	}
}

func (c *Coalescer) failAll(items []batchItem, err error) {
	for _, it := range items {
		it.p.resolve(nil, err)
	}
}

// Close flushes the queue and rejects further Begins. Frames already
// sent still land, and their replies still reach their callers.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	flush := c.takeLocked()
	c.mu.Unlock()
	c.ship(flush)
}
