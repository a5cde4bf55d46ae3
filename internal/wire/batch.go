package wire

import (
	"openhpcxx/internal/errs"
	"openhpcxx/internal/xdr"
)

// TBatch is a micro-batch frame: its body is a count followed by
// concatenated sub-messages, each a complete (magic+version checked)
// message encoding. The client-side coalescer packs many small
// requests into one TBatch so per-frame latency and framing overhead
// are paid once per flush instead of once per call; the server
// dispatches every sub-request through the ordinary path (including
// glue capability un-processing — each sub-message carries its own
// envelope chain) and answers with a TBatch of the replies in request
// order.
const TBatch MsgType = 5

// MaxBatchMessages bounds the sub-message count a decoder accepts,
// protecting servers from hostile counts.
const MaxBatchMessages = 4096

// EncodeBatch packs msgs into one TBatch frame. The outer frame's
// RequestID is left zero — the transport assigns it like any other
// request — and sub-messages keep their own ids (reply matching inside
// a batch is positional). The body is sized exactly and each
// sub-message is encoded straight into it.
func EncodeBatch(msgs []*Message) (*Message, error) {
	if len(msgs) == 0 {
		return nil, errs.New(errs.BadRequest, "wire: empty batch")
	}
	if len(msgs) > MaxBatchMessages {
		return nil, errs.Newf(errs.BadRequest, "wire: batch of %d exceeds %d", len(msgs), MaxBatchMessages)
	}
	size := 4
	for _, m := range msgs {
		if m.Type == TBatch {
			return nil, errs.New(errs.BadRequest, "wire: nested batch")
		}
		// A message's encoding is a whole number of XDR units, so its
		// opaque wrapper adds the length prefix and no padding.
		size += 4 + m.Size()
	}
	if size > MaxFrame {
		return nil, ErrTooLarge
	}
	e := xdr.NewEncoder(size)
	e.PutUint32(uint32(len(msgs)))
	for _, m := range msgs {
		e.PutUint32(uint32(m.Size()))
		if err := m.MarshalXDR(e); err != nil {
			return nil, err
		}
	}
	return &Message{Type: TBatch, Body: e.Bytes()}, nil
}

// DecodeBatch unpacks a TBatch frame into its sub-messages. Nested
// batches are rejected, so dispatch recursion is bounded at one level.
// The sub-messages alias m.Body (DecodeOwned): every caller decodes a
// batch it read off the wire itself — the server dispatching a batch
// request, the coalescer demultiplexing a batch reply — and nothing
// rewrites that frame afterwards.
func DecodeBatch(m *Message) ([]*Message, error) {
	if m.Type != TBatch {
		return nil, errs.Newf(errs.Codec, "wire: DecodeBatch on %v frame", m.Type)
	}
	var d xdr.Decoder
	d.Reset(m.Body)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errs.New(errs.Codec, "wire: empty batch")
	}
	if n > MaxBatchMessages {
		return nil, errs.Newf(errs.Codec, "wire: batch of %d exceeds %d", n, MaxBatchMessages)
	}
	out := make([]*Message, 0, n)
	for i := uint32(0); i < n; i++ {
		raw, err := d.OpaqueView()
		if err != nil {
			return nil, errs.Wrapf(errs.Codec, err, "wire: batch entry %d", i)
		}
		sub, err := DecodeOwned(raw)
		if err != nil {
			return nil, errs.Wrapf(errs.Codec, err, "wire: batch entry %d", i)
		}
		if sub.Type == TBatch {
			return nil, errs.Newf(errs.Codec, "wire: batch entry %d is a nested batch", i)
		}
		out = append(out, sub)
	}
	return out, nil
}
