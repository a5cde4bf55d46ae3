package main

import (
	"reflect"
	"testing"
)

func TestQuietSlicesKeepTheQuieterHalf(t *testing.T) {
	got := quietSlices([]float64{0.3, 0, 0.01, 0.2, 0, 0.5})
	want := []bool{false, true, true, false, true, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("quietSlices = %v, want %v", got, want)
	}
	for _, q := range quietSlices([]float64{0, 0, 0}) {
		if !q {
			t.Error("with no steal every slice is quiet")
		}
	}
}

func TestQuantilesAreNearestRank(t *testing.T) {
	var s samples
	defer s.release()
	for i := 1000; i >= 1; i-- { // out of order, and across chunks when chunkLen is small
		s.add(int64(i))
	}
	d := s.sorted()
	if d.q(0.5) != 500 || d.q(0.99) != 990 || d.q(1) != 1000 || d.q(0) != 1 {
		t.Errorf("q(.5, .99, 1, 0) = %v %v %v %v", d.q(0.5), d.q(0.99), d.q(1), d.q(0))
	}
	if got := d.above(0.99); got != 10 {
		t.Errorf("above(.99) = %d, want 10", got)
	}
	if (dist{}).q(0.5) != 0 || (dist{}).above(0.5) != 0 {
		t.Error("an empty dist should read zero")
	}
}

func TestMatchesRejectsAChangedReply(t *testing.T) {
	p := makePayloads(7, []int{16}, 1)[0][0]
	reply := *p.vals
	reply.V = append([]int32(nil), p.vals.V...)
	if err := matches(p, &reply); err != nil {
		t.Fatalf("an echo should match: %v", err)
	}
	reply.V[3]++
	if matches(p, &reply) == nil {
		t.Error("a changed value should not match")
	}
	reply.V = reply.V[:15]
	if matches(p, &reply) == nil {
		t.Error("a short reply should not match")
	}
}
