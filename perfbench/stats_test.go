package main

import (
	"math"
	"testing"
	"time"
)

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0},     // too few for any rule: the maximum
		{10, 9},    // still too few
		{11, 0},    // exactly ten beyond the minimum
		{20, 9},    // ten beyond
		{100, 89},  // p90: the 99th percentile would leave one beyond
		{999, 988}, // just under the p99 threshold
		{1000, 989},
		{2000, 1979}, // p99 proper, twenty beyond
	} {
		got := tailIndex(tc.n)
		if got != tc.want {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if beyond := tc.n - 1 - got; tc.n >= 11 && beyond < 10 {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want at least 10", tc.n, beyond)
		}
	}
}

func TestSummarizeReportsTailPercentile(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l = append(l, float64(i))
	}
	s := l.summarize()
	if s.N != 100 || s.P50 != 50.5 || s.Tail != 90 || s.TailQ != 0.9 {
		t.Fatalf("summary %+v, want N=100 P50=50.5 Tail=90 TailQ=0.9", s)
	}
	if l[0] != 1 || l[99] != 100 {
		t.Fatal("summarize reordered its input")
	}
}

func TestRefusedFramesStayInTheSample(t *testing.T) {
	l := latencies{1, 2, 3, refused, refused, refused}
	if s := l.summarize(); s.Tail != refused {
		t.Fatalf("tail %v with half the frames refused, want +Inf", s.Tail)
	}
	if v := finite(refused); math.IsInf(v, 0) || v < 1e30 {
		t.Fatalf("finite(+Inf) = %v, want a huge finite value", v)
	}
}

func TestStallsPerK(t *testing.T) {
	l := make(latencies, 1000)
	for i := range l {
		l[i] = 10
	}
	l[3], l[700] = 41, 40 // only 41 is slower than 4× the median
	if got := l.stallsPerK(); got != 1 {
		t.Fatalf("stallsPerK = %v, want 1", got)
	}
}

func TestBlockMediansTakeMedianOverBlocks(t *testing.T) {
	var bs []block
	for i, wall := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		bs = append(bs, block{
			wall: wall, ops: 1000, cpuNs: float64(1000 * (i + 1)),
			write: latencies{float64(i + 1)}, read: latencies{float64(10 * (i + 1))},
		})
	}
	m := blockMedians(bs)
	want := map[string]float64{
		"line_ops_per_s": 500, "write_p50_us": 2, "read_p50_us": 20,
		"cpu_ns_per_op": 2, "matrix_s": 7,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}
