package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// latencies is one sample of per-frame round trips in microseconds. A
// refused or failed frame is recorded as +Inf: it misses every latency
// limit, so it stays in the sample and pushes the percentiles up instead
// of vanishing from them.
type latencies []float64

// refused is the sample value of a frame that never completed.
var refused = math.Inf(1)

// summary is a latency sample reduced to what the benchmark reports.
type summary struct {
	N    int     // samples
	P50  float64 // median
	Tail float64 // value at TailQ
	// TailQ is the percentile Tail reports: 0.99 when the sample has at
	// least ten values beyond the 99th percentile, else the highest
	// percentile that does.
	TailQ float64
}

// summarize sorts a copy of the sample and reduces it. An empty sample
// summarizes to zeros.
func (l latencies) summarize() summary {
	if len(l) == 0 {
		return summary{}
	}
	s := append(latencies(nil), l...)
	sort.Float64s(s)
	k := tailIndex(len(s))
	return summary{
		N:     len(s),
		P50:   quantileSorted(s, 0.5),
		Tail:  s[k],
		TailQ: float64(k+1) / float64(len(s)),
	}
}

// tailIndex is the index into an ascending sample of n values of the
// reported tail: the 99th percentile by nearest rank, lowered until at
// least ten samples lie beyond it. Below eleven samples no value has ten
// beyond it, and the maximum is reported.
func tailIndex(n int) int {
	k := int(math.Ceil(0.99*float64(n))) - 1
	if limit := n - 11; k > limit {
		k = limit
	}
	if k < 0 {
		k = n - 1
	}
	return k
}

// quantileSorted returns the q-quantile of an ascending sample,
// interpolating linearly between neighbouring values.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	if frac == 0 {
		return s[i]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// median returns the median of xs (which it does not modify).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// stallsPerK counts the samples slower than four times the sample's
// median, per thousand samples.
func (l latencies) stallsPerK() float64 {
	if len(l) == 0 {
		return 0
	}
	limit := 4 * median(l)
	n := 0
	for _, v := range l {
		if v > limit {
			n++
		}
	}
	return 1000 * float64(n) / float64(len(l))
}

// finite maps a refused-frame percentile (+Inf) to the largest float32,
// which JSON can carry and every latency limit rejects.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

// measureBlocks is the number of blocks a measured phase is split into.
const measureBlocks = 10

// block is one slice of a measured phase.
type block struct {
	wall        time.Duration
	ops         int64   // line ops completed
	cpuNs       float64 // CPU the measured processes spent
	write, read latencies
}

// blockMedians reduces a measured phase's blocks to the end-to-end
// figures every workload reports: each is the median of its per-block
// values, except matrix_s, the whole phase's wall time.
func blockMedians(bs []block) map[string]float64 {
	var thru, wp50, wtail, rp50, rtail, cpu []float64
	var total time.Duration
	for _, b := range bs {
		ws, rs := b.write.summarize(), b.read.summarize()
		thru = append(thru, float64(b.ops)/b.wall.Seconds())
		wp50, wtail = append(wp50, ws.P50), append(wtail, ws.Tail)
		rp50, rtail = append(rp50, rs.P50), append(rtail, rs.Tail)
		cpu = append(cpu, b.cpuNs/float64(max(b.ops, 1)))
		total += b.wall
	}
	return map[string]float64{
		"line_ops_per_s": median(thru),
		"write_p50_us":   median(wp50),
		"write_p99_us":   median(wtail),
		"read_p50_us":    median(rp50),
		"read_p99_us":    median(rtail),
		"cpu_ns_per_op":  median(cpu),
		"matrix_s":       total.Seconds(),
	}
}

// describeBlocks states the per-block sample sizes and tail percentiles.
func describeBlocks(bs []block) string {
	if len(bs) == 0 {
		return "no blocks"
	}
	ws, rs := bs[0].write.summarize(), bs[0].read.summarize()
	return fmt.Sprintf("per block %d write frames (tail = p%.2f), %d read frames (tail = p%.2f)",
		ws.N, 100*ws.TailQ, rs.N, 100*rs.TailQ)
}
