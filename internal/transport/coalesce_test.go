package transport

import (
	"errors"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/wire"
)

// heldFrame is one frame a coalescer sent, with the handle the test
// resolves to land its reply.
type heldFrame struct {
	msg *wire.Message
	p   *pendingItem
}

// heldSender is a coalescer send function whose frames stay in flight
// until the test lands them; fail, when set, rejects the next send.
type heldSender struct {
	frames chan heldFrame
	fail   chan error
}

func newHeldSender() *heldSender {
	return &heldSender{frames: make(chan heldFrame, 64), fail: make(chan error, 1)}
}

func (h *heldSender) send(m *wire.Message) (Pending, error) {
	select {
	case err := <-h.fail:
		return nil, err
	default:
	}
	p := newPendingItem()
	h.frames <- heldFrame{msg: m, p: p}
	return p, nil
}

// next returns the next frame sent, failing after wait (0: it must
// have been sent already).
func (h *heldSender) next(t *testing.T, wait time.Duration, why string) heldFrame {
	t.Helper()
	select {
	case f := <-h.frames:
		return f
	default:
	}
	select {
	case f := <-h.frames:
		return f
	case <-clock.After(clock.Real{}, wait):
		t.Fatalf("no frame sent within %v: %s", wait, why)
		return heldFrame{}
	}
}

// none fails if a frame was sent.
func (h *heldSender) none(t *testing.T, why string) {
	t.Helper()
	select {
	case f := <-h.frames:
		t.Fatalf("unexpected %v frame: %s", f.msg.Type, why)
	default:
	}
}

// land answers frame f as an echo server would.
func land(t *testing.T, f heldFrame) {
	t.Helper()
	f.p.resolve(batchEchoHandler(f.msg), nil)
}

// settled waits (boundedly) for p's resolution.
func settled(t *testing.T, p Pending) (*wire.Message, error) {
	t.Helper()
	select {
	case <-p.Done():
	case <-clock.After(clock.Real{}, 5*time.Second):
		t.Fatal("request never resolved")
	}
	return p.Reply()
}

func req(body string) *wire.Message {
	return &wire.Message{Type: wire.TRequest, Method: "m", Body: []byte(body)}
}

func waitInFlight(t *testing.T, co *Coalescer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.InFlight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("coalescer has %d frames in flight, want %d", co.InFlight(), want)
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
}

// TestCoalescerSelfClockLoneRequestShipsAtOnce: with nothing in
// flight, a request goes out inside Begin — no MaxDelay wait.
func TestCoalescerSelfClockLoneRequestShipsAtOnce(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Hour})
	p, err := co.Begin(req("solo"))
	if err != nil {
		t.Fatal(err)
	}
	f := h.next(t, 0, "a lone request must ship inside Begin")
	if f.msg.Type != wire.TRequest || string(f.msg.Body) != "solo" {
		t.Fatalf("lone request shipped as %v %q", f.msg.Type, f.msg.Body)
	}
	land(t, f)
	if reply, err := settled(t, p); err != nil || string(reply.Body) != "solo" {
		t.Fatalf("reply %v, %v", reply, err)
	}
	waitInFlight(t, co, 0)
}

// TestCoalescerSelfClockQueueShipsOnReply: requests that arrive while
// a frame is in flight wait for its reply, then ship together — long
// before MaxDelay.
func TestCoalescerSelfClockQueueShipsOnReply(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Hour})
	defer co.Close()
	first, err := co.Begin(req("a"))
	if err != nil {
		t.Fatal(err)
	}
	head := h.next(t, 0, "first request")
	var queued []Pending
	for _, b := range []string{"b", "c", "d"} {
		p, err := co.Begin(req(b))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, p)
	}
	h.none(t, "requests behind an in-flight frame must queue")
	if q, _ := co.Stats(); q != 3 || co.InFlight() != 1 {
		t.Fatalf("queued %d, in flight %d; want 3 and 1", q, co.InFlight())
	}

	land(t, head)
	batch := h.next(t, 5*time.Second, "the reply must flush the queue")
	if batch.msg.Type != wire.TBatch {
		t.Fatalf("queue shipped as %v, want one batch", batch.msg.Type)
	}
	if subs, err := wire.DecodeBatch(batch.msg); err != nil || len(subs) != 3 {
		t.Fatalf("batch of %d (%v), want 3", len(subs), err)
	}
	if reply, err := settled(t, first); err != nil || string(reply.Body) != "a" {
		t.Fatalf("first reply %v, %v", reply, err)
	}
	land(t, batch)
	for i, p := range queued {
		if reply, err := settled(t, p); err != nil || string(reply.Body) != string(rune('b'+i)) {
			t.Fatalf("queued %d: %v, %v", i, reply, err)
		}
	}
	waitInFlight(t, co, 0)
}

// TestCoalescerSelfClockLastLandingFlushes: with two frames in flight
// (here forced by Flush, in traffic by MaxDelay), the first reply leaves
// the queue filling; the last one, which empties the pipe, ships it.
func TestCoalescerSelfClockLastLandingFlushes(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Hour})
	defer co.Close()
	if _, err := co.Begin(req("a")); err != nil {
		t.Fatal(err)
	}
	first := h.next(t, 0, "first request")
	if _, err := co.Begin(req("b")); err != nil {
		t.Fatal(err)
	}
	co.Flush()
	second := h.next(t, 0, "Flush must ship the queue")
	queued, err := co.Begin(req("c"))
	if err != nil {
		t.Fatal(err)
	}
	land(t, first)
	waitInFlight(t, co, 1)
	h.none(t, "a landing with another frame still out must not flush")
	land(t, second)
	third := h.next(t, 5*time.Second, "the last landing must flush the queue")
	land(t, third)
	if reply, err := settled(t, queued); err != nil || string(reply.Body) != "c" {
		t.Fatalf("queued reply %v, %v", reply, err)
	}
	waitInFlight(t, co, 0)
}

// TestCoalescerSelfClockInFlightAfterSendError: a frame that fails to
// send counts as landed — its items fail, the in-flight count returns
// to zero, and the next request again ships at once.
func TestCoalescerSelfClockInFlightAfterSendError(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Hour})
	defer co.Close()
	boom := errors.New("send failed")

	// A lone request whose send fails.
	h.fail <- boom
	p, err := co.Begin(req("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := settled(t, p); !errors.Is(err, boom) {
		t.Fatalf("lone request error %v, want %v", err, boom)
	}
	if n := co.InFlight(); n != 0 {
		t.Fatalf("%d frames in flight after a failed send, want 0", n)
	}

	// A queue whose flush fails when the head frame's reply lands.
	if _, err := co.Begin(req("a")); err != nil {
		t.Fatal(err)
	}
	head := h.next(t, 0, "head request")
	q1, _ := co.Begin(req("b"))
	q2, _ := co.Begin(req("c"))
	h.fail <- boom
	land(t, head)
	for _, p := range []Pending{q1, q2} {
		if _, err := settled(t, p); !errors.Is(err, boom) {
			t.Fatalf("queued request error %v, want %v", err, boom)
		}
	}
	waitInFlight(t, co, 0)
	if _, err := co.Begin(req("after")); err != nil {
		t.Fatal(err)
	}
	land(t, h.next(t, 0, "with nothing in flight the next request ships at once"))
	waitInFlight(t, co, 0)
}

// TestCoalescerSelfClockInFlightAfterClose: Close ships the queue, and
// the in-flight count returns to zero as the frames land.
func TestCoalescerSelfClockInFlightAfterClose(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Hour})
	if _, err := co.Begin(req("a")); err != nil {
		t.Fatal(err)
	}
	head := h.next(t, 0, "head request")
	queued, err := co.Begin(req("b"))
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
	tail := h.next(t, 0, "Close must ship the queue")
	if n := co.InFlight(); n != 2 {
		t.Fatalf("%d frames in flight after Close, want 2", n)
	}
	land(t, head)
	land(t, tail)
	if reply, err := settled(t, queued); err != nil || string(reply.Body) != "b" {
		t.Fatalf("queued reply %v, %v", reply, err)
	}
	waitInFlight(t, co, 0)
	if _, err := co.Begin(req("c")); !errors.Is(err, ErrCoalescerClosed) {
		t.Fatalf("Begin after Close: %v", err)
	}
}

// TestCoalescerSelfClockDelayBoundsSlowReply: when the in-flight
// frame's reply is slow, MaxDelay still ships the queue.
func TestCoalescerSelfClockDelayBoundsSlowReply(t *testing.T) {
	h := newHeldSender()
	co := NewCoalescer(h.send, BatchPolicy{MaxDelay: time.Millisecond})
	defer co.Close()
	if _, err := co.Begin(req("a")); err != nil {
		t.Fatal(err)
	}
	head := h.next(t, 0, "head request")
	if _, err := co.Begin(req("b")); err != nil {
		t.Fatal(err)
	}
	tail := h.next(t, 5*time.Second, "MaxDelay must bound the wait behind a slow reply")
	if co.InFlight() != 2 {
		t.Fatalf("%d frames in flight, want 2", co.InFlight())
	}
	land(t, head)
	land(t, tail)
	waitInFlight(t, co, 0)
}
