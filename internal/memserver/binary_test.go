package memserver

import (
	"context"
	"net"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// TestBinaryMatchesMemory is the served-vs-naive bit-identity check: a
// stream of mixed read/write batch frames across every bank, served by
// the frame server and the bank actors, must equal op by op — latency
// and data — the same ops applied in order through membank.Memory on a
// never-started, identically seeded server, and the served counters
// must equal the reference memory's. Per-bank coalescing, concurrent
// banks and the wire encoding may change nothing the memory does.
func TestBinaryMatchesMemory(t *testing.T) {
	s, c := startServer(t, testConfig())
	ref := MustNew(testConfig()).Memory() // actors never started: driven directly

	rng := stats.NewRNG(7)
	ops := make([]BatchOp, 100)
	var sets, resets uint64
	for round := 0; round < 5; round++ {
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
			if rng.Float64() < 0.2 {
				ops[i].Read = true
				ops[i].Data = 0
			}
		}
		resp, err := c.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		var nsSum, nsMax uint64
		for i, o := range ops {
			var ns uint64
			var data pcm.Content
			switch {
			case o.Read:
				data, ns = ref.Read(o.Line)
			case o.Data == uint8(pcm.Zeros):
				ns = ref.Write(o.Line, pcm.Zeros)
				resets++
			default:
				ns = ref.Write(o.Line, pcm.Content(o.Data))
				sets++
			}
			if resp.Ns[i] != ns || resp.Data[i] != uint8(data) {
				t.Fatalf("round %d op %d (%+v): served ns=%d d=%d, memory ns=%d d=%d",
					round, i, o, resp.Ns[i], resp.Data[i], ns, data)
			}
			nsSum += ns
			nsMax = max(nsMax, ns)
		}
		if resp.Applied != len(ops) || resp.Rejected != 0 || resp.NsSum != nsSum || resp.NsMax != nsMax {
			t.Fatalf("round %d accounting %d/%d sum %d max %d, want %d/0 sum %d max %d",
				round, resp.Applied, resp.Rejected, resp.NsSum, resp.NsMax, len(ops), nsSum, nsMax)
		}
	}

	want := map[string]float64{
		"memctld_set_writes_total":   float64(sets),
		"memctld_reset_writes_total": float64(resets),
	}
	for b := 0; b < ref.Banks(); b++ {
		st := ref.Bank(b).Stats()
		want["memctld_demand_writes_total"] += float64(st.DemandWrites)
		want["memctld_demand_reads_total"] += float64(st.DemandReads)
		want["memctld_remap_events_total"] += float64(st.RemapEvents)
		want["memctld_remap_ns_total"] += float64(st.RemapNs)
		want["memctld_sim_elapsed_ns_total"] += float64(st.ElapsedNs)
	}
	if want["memctld_remap_events_total"] == 0 {
		t.Fatal("reference stream triggered no remapping; the check would miss remap drift")
	}
	got := drainedMetrics(t, s)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: served %v, memory %v", name, got[name], w)
		}
	}
}

// TestBinaryWriteReadRoundTrip is TestWriteReadRoundTrip over the
// frame types the lockstep Write/Read helpers do not use: every write
// goes out in its own batch frame before any answer is collected
// (pipelined on one connection), then all lines come back in one
// streaming read frame.
func TestBinaryWriteReadRoundTrip(t *testing.T) {
	_, c := startServer(t, testConfig())
	lines := []uint64{0, 1, 2, 3, 4095, 1234}
	for _, la := range lines {
		if err := c.SendBatch([]BatchOp{{Line: la, Data: uint8(la % 3)}}); err != nil {
			t.Fatal(err)
		}
	}
	var resp BatchResponse
	for _, la := range lines {
		if err := c.RecvBatch(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Applied != 1 || resp.Ns[0] == 0 {
			t.Fatalf("write LA %d: applied %d, latency %v", la, resp.Applied, resp.Ns)
		}
	}
	rr, err := c.ReadBatch(lines)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Applied != len(lines) || rr.NsMax < pcm.DefaultTiming.ReadNs {
		t.Fatalf("read frame applied %d, max latency %d; want %d, at least %d",
			rr.Applied, rr.NsMax, len(lines), pcm.DefaultTiming.ReadNs)
	}
	for i, la := range lines {
		if want := uint8(la % 3); rr.Data[i] != want {
			t.Fatalf("read LA %d = %d, want %d", la, rr.Data[i], want)
		}
	}
}

// TestBinaryNackBackpressure: a full bank queue answers with a Nack
// frame carrying retry-after and partial accounting, without blocking
// and without reaching the bank.
func TestBinaryNackBackpressure(t *testing.T) {
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

	resp, err := c.Batch([]BatchOp{{Line: 0}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got resp=%+v err=%v", resp, err)
	}
	if be.RetryAfter != NackRetryAfterSecs*time.Second {
		t.Fatalf("retry-after %v, want %ds", be.RetryAfter, NackRetryAfterSecs)
	}
	if be.Resp == nil || be.Resp.Rejected != 1 || be.Resp.Applied != 0 {
		t.Fatalf("partial accounting wrong: %+v", be.Resp)
	}
	if got := s.actors[0].rejected.Load(); got != 1 {
		t.Fatalf("bank 0 rejected counter = %d, want 1", got)
	}
}

// TestBinaryRejectPathZeroAlloc pins the satellite contract directly:
// once warm, every pre-execution reject path through the frame
// server's start and finish allocates nothing.
func TestBinaryRejectPathZeroAlloc(t *testing.T) {
	s := MustNew(testConfig()) // actors never started: rejects must not reach them
	var (
		dec []BatchOp
		out []byte
	)

	badop := AppendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1 << 40}})
	flags := AppendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1}})
	flags[len(flags)-2] = 2
	cases := map[string][]byte{
		"short":    {WireVersion},
		"skew":     {WireVersion + 1, FrameBatchReq, 0, 0, 0, 0},
		"badtype":  {WireVersion, 0x7f},
		"truncate": {WireVersion, FrameBatchReq, 9, 0, 0, 0},
		"empty":    AppendBatchReqBody(nil, WireVersion, nil),
		"badop":    badop,
		"flags":    flags,
	}
	for name, body := range cases {
		frame := func() { out = s.bin.finish(s.bin.start(body, &dec), out[:0]) }
		frame() // warm the buffers
		if n := testing.AllocsPerRun(200, frame); n != 0 {
			t.Errorf("%s reject path allocates %.1f per frame, want 0", name, n)
		}
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestBinaryAcceptPathZeroAlloc pins the accepted-frame contract: once
// warm, a 256-op write frame through the frame server's start and
// finish — decode, per-bank coalescing, the actor round trips, encode —
// allocates nothing, on the static scheme and with the adaptive
// security level in the loop. The level controller must ride the
// writes the scheme already does (its monitor feed and round-boundary
// checks live inside NoteWrite), so it may add no allocation.
func TestBinaryAcceptPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on every channel handoff")
	}
	for _, scheme := range []string{SchemeRBSGDetector, SchemeAdaptive} {
		s := MustNew(Config{
			Banks: 8, Lines: 8 << 14, Scheme: scheme,
			Regions: 32, Interval: 100, Stages: 4, Seed: 1, QueueDepth: 256,
		})
		s.Start()
		rng := stats.NewRNG(3)
		ops := make([]BatchOp, 256)
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
		}
		body := AppendBatchReqBody(nil, WireVersion, ops)
		var (
			dec []BatchOp
			out []byte
		)
		frame := func() { out = s.bin.finish(s.bin.start(body, &dec), out[:0]) }
		frame() // warm the buffers and pools
		if n := testing.AllocsPerRun(200, frame); n != 0 {
			t.Errorf("%s: accepted 256-op frame allocates %.1f per frame, want 0", scheme, n)
		}
		if len(out) < 4+WireHdrSize || out[4+1] != FrameBatchResp {
			t.Fatalf("%s: frame not accepted: % x", scheme, out[:min(len(out), 8)])
		}
		s.Drain(context.Background())
	}
}

// TestFrameConnDropsOversizedBuffers: after one near-WireMaxBody frame
// a connection keeps no buffer above frameKeep, so per-connection
// memory does not grow to the largest frame seen.
func TestFrameConnDropsOversizedBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone
	s := MustNew(cfg)
	s.Start()
	defer s.Drain(context.Background())

	server, client := net.Pipe()
	fc := &frameConn{fs: s.bin, c: server, pending: make(chan pendingFrame, pendingFrames)}
	written := make(chan struct{})
	go func() { fc.writeLoop(); close(written) }()
	read := make(chan struct{})
	go func() { fc.readLoop(); close(fc.pending); close(read) }()

	ops := make([]BatchOp, (WireMaxBody-WireHdrSize-4)/wireOpSize)
	for i := range ops {
		ops[i] = BatchOp{Line: uint64(i) % cfg.Lines, Data: 1}
	}
	go client.Write(AppendFrame(nil, AppendBatchReqBody(nil, WireVersion, ops)))
	var c BinaryClient
	c.conn = client
	var resp BatchResponse
	if err := c.RecvBatch(&resp); err != nil || resp.Applied != len(ops) {
		t.Fatalf("near-limit frame: applied %d of %d, err %v", resp.Applied, len(ops), err)
	}
	client.Close()
	<-read
	<-written

	if cap(fc.body) > frameKeep || cap(fc.ops) > frameKeep/wireReadOpSize || cap(fc.out) > frameKeep {
		t.Fatalf("connection retains body %d, out %d bytes, %d ops after a %d-op frame; cap %d bytes",
			cap(fc.body), cap(fc.out), cap(fc.ops), len(ops), frameKeep)
	}
}

// TestBinaryMetricsCounters: the frame-server counters count frames,
// rejects and applied line ops.
func TestBinaryMetricsCounters(t *testing.T) {
	s, c := startServer(t, testConfig())
	for round := 0; round < 2; round++ {
		if _, err := c.Batch([]BatchOp{{Line: 1}, {Line: 2}, {Line: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Version = WireVersion + 1
	if _, err := c.Batch([]BatchOp{{Line: 1}}); err == nil {
		t.Fatal("skewed batch not rejected")
	}
	c.Version = 0

	m := ParseMetrics(s.MetricsText())
	for name, want := range map[string]float64{
		"memctld_binary_frames_total":   3,
		"memctld_binary_reject_total":   1,
		"memctld_binary_line_ops_total": 6,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
