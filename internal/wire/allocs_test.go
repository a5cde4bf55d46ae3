//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only pinned in normal builds.

package wire

import (
	"bytes"
	"testing"
)

// TestWriteReadAllocs pins the allocations of a wire.Write + wire.Read
// round trip: Write encodes into a recycled buffer, and Read allocates
// the frame (header and message together) and its buffer, which the
// body aliases. Interned header strings cost nothing once seen.
func TestWriteReadAllocs(t *testing.T) {
	const budget = 2
	msg := &Message{Type: TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, 68)}
	var buf bytes.Buffer
	roundTrip := func() {
		buf.Reset()
		if err := Write(&buf, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if got := testing.AllocsPerRun(1000, roundTrip); got > budget {
		t.Fatalf("Write+Read: %v allocs, budget %d", got, budget)
	}
}
