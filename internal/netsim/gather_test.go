package netsim

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// gatherWorld dials one connection between two machines of a LAN whose
// link charges a per-packet FrameOverhead and whose shared medium is
// slower than the link, so both serializers shape every packet.
func gatherWorld(t *testing.T) (*Network, *Conn, net.Conn) {
	t.Helper()
	prof := LinkProfile{Name: "gather", Latency: time.Millisecond, BitsPerSec: 8e6, FrameOverhead: 34}
	n := New()
	n.AddLAN("lan", "campus", prof)
	n.MustAddMachine("a", "lan")
	n.MustAddMachine("b", "lan")
	if err := n.SetLANCapacity("lan", 4e6, prof.FrameOverhead); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := n.Dial("a", l.Addr().(Addr))
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return n, c, s
}

// queued snapshots the packets waiting on the connection's send pipe.
func queued(c *Conn) []packet {
	c.send.mu.Lock()
	defer c.send.mu.Unlock()
	return append([]packet(nil), c.send.queue...)
}

// TestWriteBuffersIsOnePacket pins the gathered-write invariant: a
// WriteBuffers of (header, body, pad) is one packet, shaped and metered
// exactly like one Write of the joined bytes — one FrameOverhead, one
// LAN reservation, the same serialization gap behind the packet before
// it — and a reader taking small pieces sees the same bytes.
func TestWriteBuffersIsOnePacket(t *testing.T) {
	hdr := []byte("header-and-length!!!")
	body := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, 3001)
	pad := []byte{0, 0, 0}[:(4-len(body)%4)%4]
	joined := bytes.Join([][]byte{hdr, body, pad}, nil)
	lead := make([]byte, 4000) // serializes long enough that the next packet queues behind it

	type result struct {
		ops  uint64
		gap  time.Duration
		size int
		read []byte
	}
	run := func(gathered bool) result {
		n, c, s := gatherWorld(t)
		if _, err := c.Write(lead); err != nil {
			t.Fatal(err)
		}
		before := n.ShapingOps()
		var (
			wrote int
			err   error
		)
		if gathered {
			wrote, err = c.WriteBuffers([][]byte{hdr, body, pad})
		} else {
			wrote, err = c.Write(joined)
		}
		if err != nil || wrote != len(joined) {
			t.Fatalf("gathered=%v: wrote %d, %v; want %d", gathered, wrote, err, len(joined))
		}
		r := result{ops: n.ShapingOps() - before}
		q := queued(c)
		if len(q) != 2 {
			t.Fatalf("gathered=%v: %d packets queued, want 2 (lead + one frame)", gathered, len(q))
		}
		r.gap, r.size = q[1].deliverAt.Sub(q[0].deliverAt), len(q[1].data)
		if _, err := io.ReadFull(s, make([]byte, len(lead))); err != nil {
			t.Fatal(err)
		}
		piece := make([]byte, 7)
		for len(r.read) < len(joined) {
			k, err := s.Read(piece)
			if err != nil {
				t.Fatal(err)
			}
			r.read = append(r.read, piece[:k]...)
		}
		return r
	}
	single, gathered := run(false), run(true)

	if gathered.ops != single.ops || single.ops != 2 {
		t.Fatalf("ShapingOps: gathered %d, single write %d; want 2 each (link + LAN)", gathered.ops, single.ops)
	}
	if gathered.size != len(joined) || single.size != len(joined) {
		t.Fatalf("packet sizes: gathered %d, single %d; want %d", gathered.size, single.size, len(joined))
	}
	// Queued behind the lead packet, the frame's delivery trails it by
	// the slower serializer's time for one packet of the joined length.
	want := (&lanShaper{bps: 4e6, overhead: 34}).reserve(time.Time{}, len(joined)).Sub(time.Time{})
	if gathered.gap != single.gap || single.gap != want {
		t.Fatalf("delivery gap: gathered %v, single %v; want %v", gathered.gap, single.gap, want)
	}
	if !bytes.Equal(gathered.read, joined) || !bytes.Equal(single.read, joined) {
		t.Fatal("reader saw different bytes than were written")
	}
}

// TestWriteBuffersOwnsItsCopy checks the packet does not alias the
// caller's buffers, which io.Writer lets the caller reuse on return.
func TestWriteBuffersOwnsItsCopy(t *testing.T) {
	a, b := Pipe(ProfileUnshaped, Addr{"m1", 1}, Addr{"m2", 2})
	defer a.Close()
	defer b.Close()
	x, y := []byte("abcd"), []byte("efgh")
	if _, err := a.WriteBuffers([][]byte{x, y}); err != nil {
		t.Fatal(err)
	}
	copy(x, "XXXX")
	copy(y, "YYYY")
	got := make([]byte, 8)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("read %q, want %q", got, "abcdefgh")
	}
}
