package memserver

import "sync"

// Serving-path buffer reuse. Op slices and result slices cross the
// actor queues, every touched bank needs a reply channel, and every
// frame needs coalescing runs and response arrays; allocated per frame,
// those would churn hundreds of megabytes per second of garbage under a
// sustained loadgen stream. Everything below is pooled and recycled
// under a strict ownership rule:
//
//   - op slices are owned by the PRODUCER (the frame handler's
//     scratch): actors read them but never free them, and the handler
//     returns its scratch only after every enqueued run has replied, so
//     an actor can never observe a recycled op slice.
//   - result buffers (resBuf) are allocated by the ACTOR from the pool
//     and freed by the CONSUMER once it has copied the latencies out.
//   - reply channels are taken from the pool by enqueue and returned by
//     whoever received the answer; each carries exactly one message per
//     use, so a pooled channel is always empty.
//
// All pools are package-level: sync.Pool is safe for concurrent use and
// none of the pooled objects carries bank state (bank isolation lives
// in the actors, not in these byte/slice carriers).

// resBuf carries one request's results from an actor to its consumer.
type resBuf struct {
	res []opResult
}

var resBufPool = sync.Pool{New: func() any { return new(resBuf) }}

// getResBuf returns a result buffer with length n.
func getResBuf(n int) *resBuf {
	rb := resBufPool.Get().(*resBuf)
	if cap(rb.res) < n {
		rb.res = make([]opResult, n)
	} else {
		rb.res = rb.res[:n]
	}
	return rb
}

func putResBuf(rb *resBuf) { resBufPool.Put(rb) }

var replyPool = sync.Pool{New: func() any { return make(chan *resBuf, 1) }}

func getReply() chan *resBuf  { return replyPool.Get().(chan *resBuf) }
func putReply(c chan *resBuf) { replyPool.Put(c) }

// batchScratch is the per-frame state of memctld's frame handler: the
// per-bank coalescing runs (indexed by bank, `order` listing the banks
// touched this frame in first-touch order), the response with its
// aligned arrays, and whether the frame was a ReadReq.
type batchScratch struct {
	runs  []bankRun
	order []int
	resp  BatchResponse
	read  bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch returns a clean scratch sized for `banks` banks.
func getBatchScratch(banks int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if len(sc.runs) < banks {
		sc.runs = make([]bankRun, banks)
	}
	return sc
}

// resetRuns clears the per-bank runs touched by the last frame so the
// scratch can host another one.
//
//rbsglint:hotpath
func resetRuns(sc *batchScratch) {
	for _, b := range sc.order {
		run := &sc.runs[b]
		run.ops = run.ops[:0]
		run.idx = run.idx[:0]
		run.reply = nil
	}
	sc.order = sc.order[:0]
}

// putBatchScratch resets the runs touched by this frame and recycles
// the scratch. Oversized one-off frames are dropped instead of pinning
// megabytes in the pool.
func putBatchScratch(sc *batchScratch) {
	resetRuns(sc)
	if cap(sc.resp.Ns) > 1<<16 {
		return
	}
	batchScratchPool.Put(sc)
}
