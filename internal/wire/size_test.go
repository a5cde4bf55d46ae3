package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"openhpcxx/internal/xdr"
)

// TestQuickMessageSize: Size is the exact encoded length, with and
// without envelopes, trace ids and flag words, and Write frames it
// behind a four-byte length prefix.
func TestQuickMessageSize(t *testing.T) {
	f := func(object, method string, body []byte, envIDs []string, traced, hint bool, flags uint32) bool {
		m := &Message{Type: TRequest, RequestID: 3, Object: object, Method: method, Body: body}
		for i, id := range envIDs {
			if i == 8 {
				break
			}
			m.Envelopes = append(m.Envelopes, Envelope{ID: id, Data: []byte(id + method)})
		}
		if traced {
			m.TraceID, m.SpanID = 0xfeed, 0xbeef
		}
		m.Flags = flags
		m.SetKeepHint(hint)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		return m.Size() == len(encodeFrame(t, m)) && buf.Len() == 4+m.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeOwnedAliases: a frame Read hands out keeps its body and
// envelope data in the frame buffer instead of copying them again, and
// an append to them cannot overwrite the bytes that follow.
func TestDecodeOwnedAliases(t *testing.T) {
	in := &Message{Type: TRequest, Object: "o", Method: "m",
		Envelopes: []Envelope{{ID: "enc", Data: []byte{1, 2, 3}}}, Body: []byte("body")}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()[4:]...)
	m, err := DecodeOwned(raw)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Body[0] != &raw[len(raw)-4] {
		t.Fatal("Body does not alias the owned buffer")
	}
	if cap(m.Envelopes[0].Data) != 3 {
		t.Fatalf("envelope data capacity %d runs past its bytes", cap(m.Envelopes[0].Data))
	}
	_ = append(m.Envelopes[0].Data, 9)
	if !bytes.Equal(m.Body, []byte("body")) {
		t.Fatal("append to envelope data overwrote the frame")
	}

	// UnmarshalXDR keeps copying: its caller may reuse the input.
	var c Message
	if err := c.UnmarshalXDR(xdr.NewDecoder(raw)); err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-4] = 'X'
	if !bytes.Equal(c.Body, []byte("body")) {
		t.Fatal("UnmarshalXDR aliased its input")
	}
}
