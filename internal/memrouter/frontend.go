package memrouter

import (
	"net"
	"sync"

	"securityrbsg/internal/memserver"
)

// The client-facing binary listener: memserver's FrameServer with the
// router's FrameHandler plugged in. The router therefore speaks the
// exact memserver wire protocol — same frames, same version, same
// error codes, same connection handling — so every existing client
// (BinaryClient, loadgen, binprobe, the attack harness) points at a
// router instead of a shard and cannot tell the difference.
//
// Start splits a frame and dispatches its sub-batches to the shard
// pools; Finish waits for them, merges, and encodes. The frame
// server's reader starts frame i+1 while its writer still waits on
// frame i's shards, so a pipelined client overlaps its window across
// the router AND the shards.

// frameJob is one client frame in flight through the router: its split
// plan and the shard jobs it is waiting on. Pooled: a connection keeps
// at most its pending window (plus one per goroutine) alive.
type frameJob struct {
	read     bool
	total    int
	plan     splitPlan
	jobs     []*shardJob // aligned with plan.touched; nil = enqueue refused
	outcomes []shardOutcome
	resp     memserver.BatchResponse
}

var framePool = sync.Pool{New: func() any { return new(frameJob) }}

// maxPooledOps is the largest frame (in ops) whose buffers go back to
// framePool; a larger one-off frame is dropped instead of pinning its
// arrays in the pool.
const maxPooledOps = 1 << 16

func getFrame() *frameJob {
	fj := framePool.Get().(*frameJob)
	fj.read = false
	fj.total = 0
	fj.jobs = fj.jobs[:0]
	fj.outcomes = fj.outcomes[:0]
	return fj
}

func putFrame(fj *frameJob) {
	if cap(fj.resp.Data) > maxPooledOps {
		return
	}
	framePool.Put(fj)
}

// frontend is the router's FrameHandler.
type frontend struct{ r *Router }

// Start splits one validated client frame and dispatches its shard
// jobs.
//
//rbsglint:hotpath
func (h frontend) Start(ops []memserver.BatchOp, read bool) any {
	r := h.r
	if r.draining.Load() {
		return nil
	}
	fj := getFrame()
	fj.read = read
	fj.total = len(ops)
	r.lineOps.Add(uint64(fj.total))
	if read {
		r.readOps.Add(uint64(fj.total))
	}

	split(r.m, ops, read, &fj.plan)
	if len(fj.plan.touched) > 1 {
		r.splitFr.Add(1)
	}
	for _, s := range fj.plan.touched {
		b := &fj.plan.batches[s]
		j := getJob()
		j.read = read
		j.ops = b.ops
		j.lines = b.lines
		if !r.pools[s].enqueue(j) {
			// Router-level backpressure: the pool's queue is full. The
			// job never dispatched, so complete it here as a Nack-shaped
			// failure the merger aggregates.
			putJob(j)
			fj.jobs = append(fj.jobs, nil)
			continue
		}
		fj.jobs = append(fj.jobs, j)
	}
	return fj
}

// Finish waits for a frame's shard jobs, merges them, and encodes the
// client response.
//
//rbsglint:hotpath
func (h frontend) Finish(f any, dst []byte) []byte {
	fj := f.(*frameJob)
	for k, s := range fj.plan.touched {
		b := &fj.plan.batches[s]
		oc := shardOutcome{batch: b}
		if j := fj.jobs[k]; j == nil {
			oc.failed = true
			oc.retryAfterSecs = memserver.NackRetryAfterSecs
		} else {
			<-j.done
			switch j.state {
			case jobOK, jobNack:
				oc.nacked = j.state == jobNack
				oc.retryAfterSecs = j.retrySecs
				if fj.read {
					oc.rresp = &j.rresp
				} else {
					oc.resp = &j.resp
				}
			default:
				oc.failed = true
			}
		}
		fj.outcomes = append(fj.outcomes, oc)
	}
	nack, retry := merge(fj.outcomes, fj.total, &fj.resp)
	for _, j := range fj.jobs {
		if j != nil {
			putJob(j) // merge has copied everything out
		}
	}
	if nack {
		h.r.nacks.Add(1)
	}
	dst = memserver.AppendResponse(dst, &fj.resp, fj.read, nack, retry)
	putFrame(fj)
	return dst
}

// ServeBinary accepts client connections on ln until the listener
// closes. It returns nil on a clean close.
func (r *Router) ServeBinary(ln net.Listener) error { return r.fe.Serve(ln) }
