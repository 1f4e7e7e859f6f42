package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: which function was called, by
// which enclosing span, when, and how many line ops it carried.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory for one goroutine. A disabled tracer
// records nothing and costs one branch per call, so the untraced runs
// share the traced runs' code path.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool, epoch time.Time) *tracer {
	return &tracer{on: on, epoch: epoch}
}

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent, ops int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Ops: ops,
		Start: int64(time.Since(t.epoch)),
	})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// merge appends other tracers' spans to t, renumbering their IDs so
// they stay unique.
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		base := len(t.spans)
		for _, s := range o.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.spans = append(t.spans, s)
		}
	}
}

// total sums the duration and ops of every span with the given name.
func (t *tracer) total(name string) (ns int64, ops int, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
			ops += s.Ops
			n++
		}
	}
	return ns, ops, n
}

// durations lists, in order, the durations of the spans with the given
// name, in microseconds.
func (t *tracer) durations(name string) latencies {
	var out latencies
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children are
// counted once, and child time outside the parent's interval not at all.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = p.dur() - covered(p.Start, p.End, children[i])
	}
	return self
}

// covered measures the union of the spans' intervals clipped to
// [lo, hi).
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}

// selfTotal sums the self time of every span with the given name.
func (t *tracer) selfTotal(name string) int64 {
	self := selfTimes(t.spans)
	var ns int64
	for i, s := range t.spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return ns
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
