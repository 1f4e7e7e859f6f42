package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "frame", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "send", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "recv", ID: 2, Parent: 0, Start: 20, End: 60},  // overlaps send
		{Name: "late", ID: 3, Parent: 0, Start: 90, End: 150}, // runs past the parent
		{Name: "inner", ID: 4, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // [10,60) and [90,100) covered
		20,
		40 - 10,
		60,
		10,
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %s self time %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {2, 3}}, 10},
		{[][2]int64{{-5, 5}, {95, 200}}, 10},
		{[][2]int64{{200, 300}}, 0},
	} {
		var ss []span
		for _, v := range tc.iv {
			ss = append(ss, span{Start: v[0], End: v[1]})
		}
		if got := covered(0, 100, ss); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestTracerMergeRenumbers(t *testing.T) {
	epoch := time.Now()
	a, b := newTracer(true, epoch), newTracer(true, epoch)
	ra := a.begin("frame", -1, 4)
	a.end(a.begin("send", ra, 4))
	a.end(ra)
	rb := b.begin("frame", -1, 4)
	b.end(b.begin("send", rb, 4))
	b.end(rb)
	all := newTracer(true, epoch)
	all.merge(a, b)
	if len(all.spans) != 4 || all.spans[3].Parent != 2 || all.spans[2].ID != 2 {
		t.Fatalf("merged spans %+v", all.spans)
	}
	if _, ops, n := all.total("frame"); ops != 8 || n != 2 {
		t.Fatalf("total(frame): %d ops over %d spans, want 8 over 2", ops, n)
	}
	if self := all.selfTotal("frame"); self < 0 {
		t.Fatalf("negative self time %d", self)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false, time.Now())
	id := tr.begin("frame", -1, 1)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans (id %d)", len(tr.spans), id)
	}
}
