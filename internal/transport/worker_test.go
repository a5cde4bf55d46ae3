package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/wire"
)

// serveLabeled starts a server whose goroutines carry a pprof label,
// so workers can count them apart from other tests' servers.
func serveLabeled(l net.Listener, h Handler, label string) *Server {
	var srv *Server
	pprof.Do(context.Background(), pprof.Labels("server", label), func(context.Context) {
		srv = Serve(l, h)
	})
	return srv
}

// workers counts the live worker goroutines of the servers started
// with serveLabeled(..., label).
func workers(t *testing.T, label string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%q:%q", "server", label)
	n := 0
	// debug=1 groups identical goroutines into records "N @ pcs",
	// "# labels: {...}", then the frames, separated by blank lines (the
	// first record follows a "goroutine profile" title line).
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, want) || !strings.Contains(rec, "transport.(*Server).worker+") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			var count int
			if _, err := fmt.Sscanf(line, "%d @", &count); err == nil {
				n += count
				break
			}
		}
	}
	return n
}

// waitWorkers polls until label's worker count is want, or fails.
func waitWorkers(t *testing.T, label string, want int, why string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for workers(t, label) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d server workers alive, want %d", why, workers(t, label), want)
		}
		clock.Sleep(clock.Real{}, time.Millisecond)
	}
}

// blockingServer serves "block" by waiting on release and echoes
// everything else; started/finished count handler entries and exits.
type blockingServer struct {
	release           chan struct{}
	started, finished atomic.Int32
}

func (b *blockingServer) handle(m *wire.Message) *wire.Message {
	b.started.Add(1)
	defer b.finished.Add(1)
	if m.Method == "block" {
		<-b.release
	}
	return echoHandler(m)
}

func dialMux(t *testing.T, shm *SHM, name string) *Mux {
	t.Helper()
	c, err := shm.Dial(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewMux(c)
}

// TestServerWorkerNoHeadOfLineBlocking pins that a handler blocked on a
// channel never delays a second request on the same connection: a
// server running one request at a time fails it.
func TestServerWorkerNoHeadOfLineBlocking(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("hol")
	b := &blockingServer{release: make(chan struct{})}
	srv := Serve(l, b.handle)
	defer srv.Close()
	m := dialMux(t, shm, "hol")
	defer m.Close()
	var release sync.Once
	defer release.Do(func() { close(b.release) }) // first, so a failing run still closes

	slow, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "block"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fast, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "fast", Body: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-fast.Done():
		case <-clock.After(clock.Real{}, 5*time.Second):
			t.Fatalf("request %d waited behind the blocked handler", i)
		}
		if reply, err := fast.Reply(); err != nil || !bytes.Equal(reply.Body, []byte{byte(i)}) {
			t.Fatalf("request %d: %v, %v", i, reply, err)
		}
	}
	select {
	case <-slow.Done():
		t.Fatal("blocked handler replied before release")
	default:
	}
	release.Do(func() { close(b.release) })
	if _, err := slow.Reply(); err != nil {
		t.Fatal(err)
	}
}

// TestServerWorkerExitOnClose pins the workers' lifetime: they outlive
// their requests while the connection is open (that is the reuse), exit
// once it closes, and Close leaves none behind.
func TestServerWorkerExitOnClose(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("life")
	srv := serveLabeled(l, echoHandler, "life")

	// Concurrent calls on two connections start several workers.
	var wg sync.WaitGroup
	muxes := []*Mux{dialMux(t, shm, "life"), dialMux(t, shm, "life")}
	for _, m := range muxes {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(m *Mux) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "x"}); err != nil {
						t.Error(err)
						return
					}
				}
			}(m)
		}
	}
	wg.Wait()
	if workers(t, "life") < 2 {
		t.Fatal("workers did not outlive their requests on open connections")
	}

	// Closing one connection ends its workers; the other's stay.
	muxes[0].Close()
	if _, err := muxes[1].Call(&wire.Message{Type: wire.TRequest, Method: "x"}); err != nil {
		t.Fatal(err)
	}
	if workers(t, "life") == 0 {
		t.Fatal("closing one connection ended the other's workers")
	}

	// Closing the server ends the rest. Close waits for them (a worker
	// counts itself out as its last act), so only goroutine teardown is
	// left to poll for.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitWorkers(t, "life", 0, "after Close")
	muxes[1].Close()
}

// TestServerWorkerIdleExitOnConnClose checks that idle workers exit as
// soon as the client hangs up, with the server still running.
func TestServerWorkerIdleExitOnConnClose(t *testing.T) {
	shm := NewSHM()
	l, _ := shm.Listen("idle")
	srv := serveLabeled(l, echoHandler, "idle")
	defer srv.Close()
	m := dialMux(t, shm, "idle")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Call(&wire.Message{Type: wire.TRequest, Method: "x"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if workers(t, "idle") == 0 {
		t.Fatal("no idle worker left on the open connection")
	}
	m.Close()
	waitWorkers(t, "idle", 0, "after the client closed its connection")
}

// TestServerWorkerDrainAndCloseWait pins that Drain returns only after
// every running handler has finished, and Close only after every
// worker has.
func TestServerWorkerDrainAndCloseWait(t *testing.T) {
	for _, stop := range []string{"drain", "close"} {
		t.Run(stop, func(t *testing.T) {
			shm := NewSHM()
			l, _ := shm.Listen("wait")
			b := &blockingServer{release: make(chan struct{})}
			srv := serveLabeled(l, b.handle, "wait-"+stop)
			defer srv.Close()
			m := dialMux(t, shm, "wait")
			defer m.Close()

			const n = 4
			for i := 0; i < n; i++ {
				if _, err := m.Begin(&wire.Message{Type: wire.TRequest, Method: "block"}); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for b.started.Load() != n {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d handlers started", b.started.Load(), n)
				}
				clock.Sleep(clock.Real{}, time.Millisecond)
			}

			returned := make(chan int32)
			go func() {
				if stop == "drain" {
					srv.Drain()
				} else {
					srv.Close()
				}
				returned <- b.finished.Load()
			}()
			select {
			case <-returned:
				t.Fatalf("%s returned with handlers still running", stop)
			case <-clock.After(clock.Real{}, 20*time.Millisecond):
			}
			close(b.release)
			if done := <-returned; done != n {
				t.Fatalf("%s returned after %d of %d handlers finished", stop, done, n)
			}
			if stop == "close" {
				waitWorkers(t, "wait-close", 0, "after Close")
			}
		})
	}
}
