// Package wire defines the Open HPC++ on-the-wire message format shared
// by every protocol object.
//
// A message is a length-delimited frame containing an XDR-encoded header
// (message type, request id, target object, method, migration epoch, and
// a chain of capability envelopes) followed by an opaque body. Capability
// objects transform only the body and record what they did in the
// envelope chain, so a glue protocol can un-process a request on the
// server side in exactly the reverse order it was processed on the client
// side (paper §4.2, Figure 2).
package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// Magic identifies Open HPC++ frames ("HPCX").
const Magic uint32 = 0x48504358

// Version is the newest wire protocol version this package speaks.
// Version 2 added the absolute invocation deadline to the header;
// version 3 added the optional trace and span IDs so a server can
// continue the caller's trace; version 4 added the flags word carrying
// the trace keep-hint bit. Frames from older versions are still
// accepted, decoding with the missing fields zero (no deadline,
// untraced) — except that traced v3 frames decode with the keep-hint
// flag set, because a v3 peer predates tail-based retention and must
// be buffered conservatively.
//
// The encoder emits the LOWEST version that represents a message
// exactly (see wireVersion): most frames still go out as v3, so a
// rolling mixed-version deployment keeps connectivity. Only frames
// whose flags a v3 decoder would mis-infer — in practice a traced
// frame whose tail keeper cleared the keep-hint — need v4 framing, and
// a v3 peer rejects those with ErrBadVersion; it would have buffered
// the trace conservatively anyway, so the loss is the optimization,
// not correctness.
const Version uint32 = 4

// minVersion is the oldest wire version the decoder accepts.
const minVersion uint32 = 1

// MaxFrame bounds a frame's total size (64 MiB), protecting servers from
// hostile length prefixes.
const MaxFrame = 64 << 20

// MsgType discriminates frame kinds.
type MsgType uint32

// Message kinds.
const (
	TRequest MsgType = 1 // method invocation
	TReply   MsgType = 2 // successful result
	TFault   MsgType = 3 // remote error
	TControl MsgType = 4 // runtime-internal traffic (migration, ping)
)

func (t MsgType) String() string {
	switch t {
	case TRequest:
		return "request"
	case TReply:
		return "reply"
	case TFault:
		return "fault"
	case TControl:
		return "control"
	case TBatch:
		return "batch"
	}
	return fmt.Sprintf("msgtype(%d)", uint32(t))
}

// Envelope records one capability's transformation of the body. ID names
// the capability kind; Data carries whatever the capability needs to undo
// the transformation (nonces, original lengths, MACs, ...).
type Envelope struct {
	ID   string
	Data []byte
}

// Message is one frame.
type Message struct {
	Type      MsgType
	RequestID uint64
	Object    string // target object id ("context-id/obj-N")
	Method    string
	Epoch     uint64 // migration epoch of the OR the caller used
	// Deadline is the absolute instant (Unix nanoseconds) after which
	// the caller no longer wants the result; 0 means no deadline.
	// Servers shed already-expired requests instead of doing dead work.
	Deadline int64
	// TraceID and SpanID (wire v3) carry the caller's end-to-end trace
	// identity so server-side spans join the client's trace. Both zero
	// means the caller was not tracing; servers must treat them as
	// opaque and never allocate based on their values.
	TraceID uint64
	SpanID  uint64
	// Flags (wire v4) carries per-message boolean hints. Unknown bits
	// are preserved verbatim through a decode/encode round trip so
	// future versions can add bits without breaking v4 relays.
	Flags     uint32
	Envelopes []Envelope
	Body      []byte
}

// Flag bits for Message.Flags.
const (
	// FlagKeepHint marks the trace this message belongs to as a
	// retention candidate: the caller's tail keeper is still buffering
	// it, so downstream keepers should buffer its server-side spans
	// too. Absent the bit, a tail keeper may discard the continued
	// trace's spans immediately instead of holding them to trace end.
	FlagKeepHint uint32 = 1 << 0
)

// KeepHint reports whether the frame marks its trace as a retention
// candidate (FlagKeepHint).
func (m *Message) KeepHint() bool {
	return m.Flags&FlagKeepHint != 0
}

// SetKeepHint sets or clears the retention-candidate bit.
func (m *Message) SetKeepHint(on bool) {
	if on {
		m.Flags |= FlagKeepHint
	} else {
		m.Flags &^= FlagKeepHint
	}
}

// Expired reports whether the message carries a deadline that has
// already passed at the given instant.
func (m *Message) Expired(now int64) bool {
	return m.Deadline != 0 && now > m.Deadline
}

// wireVersion is the lowest wire version that represents m exactly. A
// v3 decoder reconstructs the flags word as "keep-hint iff traced", so
// any message whose flags match that inference round-trips through v3
// framing losslessly; emitting v3 for those keeps pre-flags peers
// decoding upgraded senders through a rolling deploy. Only a flags
// word a v3 decoder would get wrong — a cleared keep-hint on a traced
// frame, a set hint on an untraced one, or any future bit — forces v4.
func (m *Message) wireVersion() uint32 {
	implicit := uint32(0)
	if m.TraceID != 0 {
		implicit = FlagKeepHint
	}
	if m.Flags != implicit {
		return Version
	}
	return 3
}

// MarshalXDR encodes everything after the frame length prefix.
func (m *Message) MarshalXDR(e *xdr.Encoder) error {
	m.marshalHeader(e)
	e.PutOpaque(m.Body)
	return nil
}

// marshalHeader encodes everything between the frame length prefix and
// the body.
func (m *Message) marshalHeader(e *xdr.Encoder) {
	ver := m.wireVersion()
	e.PutUint32(Magic)
	e.PutUint32(ver)
	e.PutUint32(uint32(m.Type))
	e.PutUint64(m.RequestID)
	e.PutString(m.Object)
	e.PutString(m.Method)
	e.PutUint64(m.Epoch)
	e.PutInt64(m.Deadline)
	e.PutUint64(m.TraceID)
	e.PutUint64(m.SpanID)
	if ver >= 4 {
		e.PutUint32(m.Flags)
	}
	e.PutUint32(uint32(len(m.Envelopes)))
	for _, env := range m.Envelopes {
		e.PutString(env.ID)
		e.PutOpaque(env.Data)
	}
}

// Size is the exact length of m's encoding after the frame length
// prefix — what MarshalXDR writes. Every send path sizes its buffer
// with it, so an encode allocates once and never grows.
func (m *Message) Size() int {
	n := 4 + 4 + 4 + 8 + xdr.SizeOpaque(len(m.Object)) + xdr.SizeOpaque(len(m.Method)) +
		8 + 8 + 8 + 8 + 4 + xdr.SizeOpaque(len(m.Body))
	if m.wireVersion() >= 4 {
		n += 4
	}
	for _, env := range m.Envelopes {
		n += xdr.SizeOpaque(len(env.ID)) + xdr.SizeOpaque(len(env.Data))
	}
	return n
}

// Frame errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTooLarge   = errors.New("wire: frame exceeds MaxFrame")
)

// UnmarshalXDR decodes everything after the frame length prefix. Body
// and envelope Data are copied out of the decoder's input, which the
// caller may go on to reuse.
func (m *Message) UnmarshalXDR(d *xdr.Decoder) error {
	return m.decode(d, false)
}

// DecodeOwned decodes one message (the bytes after the frame length
// prefix) from a buffer the caller hands over: Body and envelope Data
// alias buf instead of being copied, so the caller must never modify or
// reuse buf afterwards. Read decodes every frame it reads this way, as
// do the nexus embedding and DecodeBatch, whose buffers are the bodies
// of frames Read allocated.
func DecodeOwned(buf []byte) (*Message, error) {
	m := new(Message)
	if err := decodeOwnedInto(buf, m); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeOwnedInto(buf []byte, m *Message) error {
	var d xdr.Decoder
	d.Reset(buf)
	if err := m.decode(&d, true); err != nil {
		return err
	}
	return xdr.CheckTrailing(d.Remaining())
}

// decode reads a message. With alias set, Body and envelope Data are
// views of the decoder's input, capacity-capped so an append on them
// reallocates instead of overwriting the bytes that follow.
func (m *Message) decode(d *xdr.Decoder, alias bool) error {
	opaque := func() ([]byte, error) {
		if !alias {
			return d.Opaque()
		}
		b, err := d.OpaqueView()
		return b[:len(b):len(b)], err
	}
	magic, err := d.Uint32()
	if err != nil {
		return err
	}
	if magic != Magic {
		return ErrBadMagic
	}
	ver, err := d.Uint32()
	if err != nil {
		return err
	}
	if ver < minVersion || ver > Version {
		return ErrBadVersion
	}
	typ, err := d.Uint32()
	if err != nil {
		return err
	}
	m.Type = MsgType(typ)
	if m.RequestID, err = d.Uint64(); err != nil {
		return err
	}
	if m.Object, err = internString(d); err != nil {
		return err
	}
	if m.Method, err = internString(d); err != nil {
		return err
	}
	if m.Epoch, err = d.Uint64(); err != nil {
		return err
	}
	m.Deadline = 0
	if ver >= 2 {
		if m.Deadline, err = d.Int64(); err != nil {
			return err
		}
	}
	m.TraceID, m.SpanID = 0, 0
	if ver >= 3 {
		if m.TraceID, err = d.Uint64(); err != nil {
			return err
		}
		if m.SpanID, err = d.Uint64(); err != nil {
			return err
		}
	}
	m.Flags = 0
	if ver >= 4 {
		if m.Flags, err = d.Uint32(); err != nil {
			return err
		}
	} else if m.TraceID != 0 {
		// A traced frame from a pre-hint peer: buffer conservatively.
		m.Flags = FlagKeepHint
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 64 {
		return errs.Newf(errs.Codec, "wire: %d envelopes exceeds limit", n)
	}
	m.Envelopes = make([]Envelope, n)
	for i := range m.Envelopes {
		if m.Envelopes[i].ID, err = internString(d); err != nil {
			return err
		}
		if m.Envelopes[i].Data, err = opaque(); err != nil {
			return err
		}
	}
	m.Body, err = opaque()
	return err
}

// writeBufs recycles Write's frame buffers: io.Writer implementations
// must not retain p, so a buffer is free again once Write returns.
// Buffers that grew past maxPooledWrite are left to the collector, so a
// burst of bulk frames does not pin megabytes in the pool.
var writeBufs = sync.Pool{New: func() any { return new(xdr.Encoder) }}

const maxPooledWrite = 64 << 10

// gatherWriter is a writer that takes a frame in pieces and sends their
// concatenation as one write (netsim.Conn).
type gatherWriter interface {
	WriteBuffers(bufs [][]byte) (int, error)
}

// zeroPad supplies a gathered body's XDR padding.
var zeroPad [3]byte

// Write frames and writes m to w. It is not safe for concurrent use on
// one writer; callers serialize per connection.
//
// A frame whose body exceeds maxPooledWrite goes to a gatherWriter as
// one gathered write: only the header and the body's length prefix are
// encoded, and the body is handed over in place instead of being copied
// into a frame-sized buffer. The bytes on the wire are the same either
// way; any other writer gets them in one contiguous Write.
func Write(w io.Writer, m *Message) error {
	n := m.Size()
	if n > MaxFrame {
		return ErrTooLarge
	}
	e := writeBufs.Get().(*xdr.Encoder)
	e.Reset()
	var err error
	if gw, ok := w.(gatherWriter); ok && len(m.Body) > maxPooledWrite {
		err = writeGathered(gw, e, m, n)
	} else {
		e.Grow(4 + n)
		e.PutUint32(uint32(n))
		if err = m.MarshalXDR(e); err == nil {
			_, err = w.Write(e.Bytes())
		}
	}
	if cap(e.Bytes()) <= maxPooledWrite {
		writeBufs.Put(e)
	}
	return err
}

// writeGathered writes the n-byte encoding of m as (header, body, pad),
// encoding only the header and the body's length prefix into e.
func writeGathered(w gatherWriter, e *xdr.Encoder, m *Message, n int) error {
	bodyPad := xdr.SizeOpaque(len(m.Body)) - 4 - len(m.Body)
	e.Grow(4 + n - len(m.Body) - bodyPad)
	e.PutUint32(uint32(n))
	m.marshalHeader(e)
	e.PutUint32(uint32(len(m.Body)))
	_, err := w.WriteBuffers([][]byte{e.Bytes(), m.Body, zeroPad[:bodyPad]})
	return err
}

// frame is what Read allocates per frame: the length prefix rides in
// the same allocation as the message instead of escaping on its own
// through the io.Reader call.
type frame struct {
	hdr [4]byte
	msg Message
}

// Read reads one frame from r. The frame buffer is allocated here and
// owned by the returned message: Body and envelope Data alias it
// (DecodeOwned) rather than being copied out a second time.
func Read(r io.Reader) (*Message, error) {
	f := new(frame)
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(uint32(f.hdr[0])<<24 | uint32(f.hdr[1])<<16 | uint32(f.hdr[2])<<8 | uint32(f.hdr[3]))
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if err := decodeOwnedInto(buf, &f.msg); err != nil {
		return nil, err
	}
	return &f.msg, nil
}
