package udprel

import (
	"testing"
	"time"

	"openhpcxx/internal/clock"
	"openhpcxx/internal/netsim"
)

// fakeNode is a Node with just the receive-side state, on a fake clock.
func fakeNode(clk clock.Clock) *Node {
	return &Node{
		cfg:  Config{Clock: clk}.withDefaults(),
		rx:   make(map[rxKey]*rxState),
		done: make(map[rxKey]struct{}),
	}
}

// complete delivers a one-fragment message and reports whether it was
// accepted as new (false: suppressed as a duplicate).
func complete(n *Node, from netsim.Addr, id uint64) bool {
	_, ok := n.assemble(from, id, 0, 1, []byte{1})
	return ok
}

// TestDonePruneWorkIsFlat completes three tables' worth of messages
// while the fake clock ages them out at the rate they arrive. The prune
// work per message must stay constant: the first table fills the
// FIFO, and every later message pops about one expired entry instead of
// rescanning everything that is still young.
func TestDonePruneWorkIsFlat(t *testing.T) {
	const table = 8192
	clk := clock.NewFake(time.Unix(1000, 0))
	n := fakeNode(clk)
	from := netsim.Addr{Machine: "a", Port: 1}
	step := doneTTL / table
	for round := 0; round < 3; round++ {
		before := n.pruneSteps
		for i := 0; i < table; i++ {
			if !complete(n, from, uint64(round*table+i)) {
				t.Fatalf("round %d: fresh message %d suppressed", round, i)
			}
			clk.Advance(step)
		}
		if per := float64(n.pruneSteps-before) / table; per > 2.1 {
			t.Fatalf("round %d: %.2f prune steps per message, want <= 2.1", round, per)
		}
		if len(n.done) > table+1 {
			t.Fatalf("round %d: duplicate table holds %d entries, want <= %d", round, len(n.done), table+1)
		}
	}
	if live := len(n.doneFIFO) - n.doneHead; live != len(n.done) {
		t.Fatalf("FIFO holds %d live entries, map %d", live, len(n.done))
	}
}

// TestDuplicatesSuppressedForTTL checks the suppression window on the
// node's own clock: a duplicate younger than doneTTL is dropped, one
// arriving after the entry expired is accepted again.
func TestDuplicatesSuppressedForTTL(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	n := fakeNode(clk)
	from := netsim.Addr{Machine: "a", Port: 1}
	if !complete(n, from, 1) {
		t.Fatal("first delivery suppressed")
	}
	clk.Advance(doneTTL - time.Second)
	if complete(n, from, 1) {
		t.Fatal("duplicate younger than doneTTL accepted")
	}
	clk.Advance(2 * time.Second)
	// Any completion prunes; message 1 is now older than doneTTL.
	if !complete(n, from, 2) {
		t.Fatal("fresh message suppressed")
	}
	if !complete(n, from, 1) {
		t.Fatal("message 1 still suppressed after doneTTL")
	}
}
