package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"openhpcxx/internal/netsim"
)

// bulkMessage is a frame whose body takes Write's gathered path; the
// odd body length makes the frame end in XDR padding.
func bulkMessage(bodyLen int) *Message {
	body := make([]byte, bodyLen)
	for i := range body {
		body[i] = byte(i*7 + i>>8)
	}
	m := sample()
	m.Body = body
	return m
}

// contiguous is what Write sends for m in a single buffer: the length
// prefix and the MarshalXDR encoding.
func contiguous(t *testing.T, m *Message) []byte {
	t.Helper()
	enc := encodeFrame(t, m)
	return append([]byte{byte(len(enc) >> 24), byte(len(enc) >> 16), byte(len(enc) >> 8), byte(len(enc))}, enc...)
}

func sameMessage(t *testing.T, got, want *Message) {
	t.Helper()
	if got.Type != want.Type || got.RequestID != want.RequestID || got.Object != want.Object ||
		got.Method != want.Method || got.Epoch != want.Epoch || got.Deadline != want.Deadline ||
		got.TraceID != want.TraceID || got.SpanID != want.SpanID || got.Flags != want.Flags ||
		len(got.Envelopes) != len(want.Envelopes) || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("read back a different message:\n got  %+v\n want %+v", got, want)
	}
	for i := range want.Envelopes {
		if got.Envelopes[i].ID != want.Envelopes[i].ID || !bytes.Equal(got.Envelopes[i].Data, want.Envelopes[i].Data) {
			t.Fatalf("envelope %d: got %+v, want %+v", i, got.Envelopes[i], want.Envelopes[i])
		}
	}
}

// TestWriteGatheredNoFrameBuffer: a 1 MiB body goes to a netsim conn as
// one gathered write. The only frame-sized allocation is the packet the
// simulated link keeps; Write itself allocates less than the body size
// beyond it, where a contiguous write would build a whole second frame.
func TestWriteGatheredNoFrameBuffer(t *testing.T) {
	m := bulkMessage(1<<20 + 3)
	a, b := netsim.Pipe(netsim.ProfileUnshaped, netsim.Addr{Machine: "a", Port: 1}, netsim.Addr{Machine: "b", Port: 2})
	defer a.Close()
	defer b.Close()
	frameLen := uint64(4 + m.Size())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Write(a, m); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if extra := after.TotalAlloc - before.TotalAlloc - frameLen; extra >= uint64(len(m.Body))/16 {
		t.Fatalf("Write allocated %d bytes beyond the %d-byte packet, want < %d",
			extra, frameLen, len(m.Body)/16)
	}
	got, err := Read(b)
	if err != nil {
		t.Fatal(err)
	}
	sameMessage(t, got, m)
}

// TestWriteBulkBytesIdentical: a plain writer (bytes.Buffer) gets a
// bulk frame in one contiguous write and a netsim conn gets it as one
// gathered packet; both see the same bytes.
func TestWriteBulkBytesIdentical(t *testing.T) {
	for _, n := range []int{maxPooledWrite + 1, maxPooledWrite + 2, 1 << 20} {
		m := bulkMessage(n)
		want := contiguous(t, m)

		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("bytes.Buffer, body %d: output differs from the contiguous encoding", n)
		}

		a, b := netsim.Pipe(netsim.ProfileUnshaped, netsim.Addr{Machine: "a", Port: 1}, netsim.Addr{Machine: "b", Port: 2})
		if err := Write(a, m); err != nil {
			t.Fatalf("netsim, body %d: Write: %v", n, err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatalf("netsim, body %d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("netsim, body %d: bytes differ from the contiguous encoding", n)
		}
		a.Close()
		b.Close()
	}
}
