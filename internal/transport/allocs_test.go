//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only pinned in normal builds.

package transport

import (
	"testing"

	"openhpcxx/internal/wire"
)

// TestMuxCallSHMAllocs pins the allocations of one Mux.Call over SHM
// into transport.Serve with an echo handler, both ends included: the
// pending call and its done channel, a frame and frame buffer per Read
// on each side, the echo reply, and the netsim fabric's copy and queue
// entry for each write.
// Workers are reused, the timeout watchdog is per mux, and writes
// encode into recycled buffers, so none of those allocate per call.
func TestMuxCallSHMAllocs(t *testing.T) {
	const budget = 11
	shm := NewSHM()
	l, _ := shm.Listen("allocs")
	srv := Serve(l, echoHandler)
	defer srv.Close()
	m := dialMux(t, shm, "allocs")
	defer m.Close()
	msg := &wire.Message{Type: wire.TRequest, Object: "ctx/obj-1", Method: "exchange", Body: make([]byte, 68)}
	call := func() {
		if _, err := m.Call(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	if got := testing.AllocsPerRun(2000, call); got > budget {
		t.Fatalf("Mux.Call over SHM: %v allocs, budget %d", got, budget)
	}
}
