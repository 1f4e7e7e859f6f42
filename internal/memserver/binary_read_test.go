package memserver

import (
	"testing"
	"time"

	"securityrbsg/internal/stats"
)

// TestBinaryReadBatchDifferential is the streaming-read differential
// proof: twin identically seeded servers take the identical write
// preload, then one serves reads through ReadReq frames and the other
// through full BatchReq frames. The data and the batch accounting must
// match exactly — the thin mode changes response encoding, never what
// the banks do.
func TestBinaryReadBatchDifferential(t *testing.T) {
	_, thin := startServer(t, testConfig())
	_, full := startServer(t, testConfig())

	rng := stats.NewRNG(11)
	writes := make([]BatchOp, 200)
	for i := range writes {
		writes[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
	}
	if _, err := thin.Batch(writes); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Batch(writes); err != nil {
		t.Fatal(err)
	}

	lines := make([]uint64, 64)
	fullOps := make([]BatchOp, len(lines))
	for round := 0; round < 5; round++ {
		for i := range lines {
			lines[i] = rng.Uint64n(4096)
			fullOps[i] = BatchOp{Line: lines[i], Read: true}
		}
		tr, err := thin.ReadBatch(lines)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := full.Batch(fullOps)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Applied != fr.Applied || tr.Rejected != fr.Rejected ||
			tr.NsSum != fr.NsSum || tr.NsMax != fr.NsMax {
			t.Fatalf("round %d accounting: read-batch %+v != full %+v", round, tr, fr)
		}
		if len(tr.Data) != len(fr.Data) {
			t.Fatalf("round %d data length %d != %d", round, len(tr.Data), len(fr.Data))
		}
		for i := range tr.Data {
			if tr.Data[i] != fr.Data[i] {
				t.Fatalf("round %d line %d: read-batch data %d != full %d",
					round, lines[i], tr.Data[i], fr.Data[i])
			}
		}
	}
}

// TestBinaryReadBatchCountsMetric: reads served through ReadReq frames
// show up in both binary_line_ops_total and the read-mode counter.
func TestBinaryReadBatchCountsMetric(t *testing.T) {
	s, c := startServer(t, testConfig())
	if _, err := c.ReadBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := s.binReadOps.Load(); got != 3 {
		t.Fatalf("binary_read_batch_ops_total = %d, want 3", got)
	}
	if got := s.binLineOps.Load(); got != 3 {
		t.Fatalf("binary_line_ops_total = %d, want 3", got)
	}
}

// TestBinaryPipelinedInOrder drives the windowed client calls: a burst
// of frames goes out before any response is read, then the responses
// are received strictly in send order. Each batch writes a distinct
// content sequence and reads back the line the *previous* batch wrote,
// so any reorder or drop shows up as wrong data, and the final state
// must match what the same ops produce in lockstep on a twin server.
func TestBinaryPipelinedInOrder(t *testing.T) {
	_, pc := startServer(t, testConfig())
	_, lc := startServer(t, testConfig())

	const window = 16
	batch := func(i int) []BatchOp {
		// Write line i with content i%3, read back line i-1 (written by
		// the previous batch — only correct if the server saw them in
		// order).
		ops := []BatchOp{{Line: uint64(i), Data: uint8(i % 3)}}
		if i > 0 {
			ops = append(ops, BatchOp{Line: uint64(i - 1), Read: true})
		}
		return ops
	}

	var lockstep []BatchResponse
	for i := 0; i < window; i++ {
		r, err := lc.Batch(batch(i))
		if err != nil {
			t.Fatal(err)
		}
		cp := *r
		cp.Ns = append([]uint64(nil), r.Ns...)
		cp.Data = append([]uint8(nil), r.Data...)
		lockstep = append(lockstep, cp)
	}

	for i := 0; i < window; i++ {
		if err := pc.SendBatch(batch(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	var resp BatchResponse
	for i := 0; i < window; i++ {
		if err := pc.RecvBatch(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := &lockstep[i]
		if resp.Applied != want.Applied || resp.NsSum != want.NsSum || resp.NsMax != want.NsMax {
			t.Fatalf("batch %d accounting: pipelined %+v != lockstep %+v", i, resp, want)
		}
		for j := range resp.Data {
			if resp.Data[j] != want.Data[j] || resp.Ns[j] != want.Ns[j] {
				t.Fatalf("batch %d op %d: pipelined ns=%d d=%d != lockstep ns=%d d=%d",
					i, j, resp.Ns[j], resp.Data[j], want.Ns[j], want.Data[j])
			}
		}
		if i > 0 {
			if got, want := resp.Data[1], uint8((i-1)%3); got != want {
				t.Fatalf("batch %d read back %d, want %d (reordered?)", i, got, want)
			}
		}
	}
}

// TestBinaryPipelinedReadBatches: the windowed read-mode calls complete
// in order too, and a sender goroutine may run concurrently with a
// receiver goroutine on one client (disjoint buffer halves).
func TestBinaryPipelinedReadBatches(t *testing.T) {
	_, c := startServer(t, testConfig())
	const rounds = 64
	errs := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := c.SendReadBatch([]uint64{uint64(i), uint64(i + 1)}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	var r ReadBatchResponse
	for i := 0; i < rounds; i++ {
		if err := c.RecvReadBatch(&r); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if r.Applied != 2 || len(r.Data) != 2 {
			t.Fatalf("recv %d: applied %d data %v", i, r.Applied, r.Data)
		}
	}
	if err := <-errs; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestBinaryReadNackBackpressure: a Nacked ReadReq frame surfaces as a
// BackpressureError carrying the thin partial accounting.
func TestBinaryReadNackBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.QueueDepth; i++ {
		s.actors[0].ch <- bankReq{}
	}
	addr := startBinaryListener(t, s)
	c := dialBinary(t, addr)

	_, err = c.ReadBatch([]uint64{0})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if be.RetryAfter != NackRetryAfterSecs*time.Second {
		t.Fatalf("retry-after %v, want %ds", be.RetryAfter, NackRetryAfterSecs)
	}
	if be.ReadResp == nil || be.ReadResp.Rejected != 1 || be.ReadResp.Applied != 0 {
		t.Fatalf("partial read accounting wrong: %+v", be.ReadResp)
	}
}
