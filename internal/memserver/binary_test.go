package memserver

import (
	"context"
	"net"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// startBinaryListener attaches a binary-protocol listener to s and
// registers its shutdown (before any drain cleanup the caller has
// already registered — t.Cleanup runs LIFO, and ShutdownBinary must
// run while the actors still do).
func startBinaryListener(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.ShutdownBinary(ctx); err != nil {
			t.Errorf("binary shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve binary: %v", err)
		}
	})
	return ln.Addr().String()
}

// startBinaryServer builds and starts a server with a binary listener
// and returns a connected client plus the listener address.
func startBinaryServer(t *testing.T, cfg Config) (*Server, *BinaryClient, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	addr := startBinaryListener(t, s)
	c := dialBinary(t, addr)
	return s, c, addr
}

func dialBinary(t *testing.T, addr string) *BinaryClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryWriteReadRoundTrip(t *testing.T) {
	_, c, _ := startBinaryServer(t, testConfig())
	for _, la := range []uint64{0, 1, 2, 3, 4095, 1234} {
		want := pcm.Content(la % 3)
		if ns := c.Write(la, want); ns == 0 {
			t.Fatalf("write LA %d: zero latency", la)
		}
		got, ns := c.Read(la)
		if got != want {
			t.Fatalf("read LA %d = %v, want %v", la, got, want)
		}
		if ns < pcm.DefaultTiming.ReadNs {
			t.Fatalf("read LA %d: latency %d below device read time", la, ns)
		}
	}
}

// TestBinaryMatchesJSON is the differential proof the two transports
// front the same machine: identically seeded servers fed the same op
// stream — one over HTTP+JSON, one over the binary protocol — must
// report identical per-op latencies, data, and accounting.
func TestBinaryMatchesJSON(t *testing.T) {
	_, jc := startServer(t, testConfig())
	_, bc, _ := startBinaryServer(t, testConfig())

	rng := stats.NewRNG(7)
	ops := make([]BatchOp, 100)
	for round := 0; round < 5; round++ {
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
			if rng.Float64() < 0.2 {
				ops[i].Read = true
				ops[i].Data = 0
			}
		}
		jr, err := jc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		br, err := bc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Applied != br.Applied || jr.Rejected != br.Rejected ||
			jr.NsSum != br.NsSum || jr.NsMax != br.NsMax {
			t.Fatalf("round %d accounting: json %+v != binary %+v", round, jr, br)
		}
		for i := range ops {
			if jr.Ns[i] != br.Ns[i] || jr.Data[i] != br.Data[i] {
				t.Fatalf("round %d op %d (%+v): json ns=%d d=%d, binary ns=%d d=%d",
					round, i, ops[i], jr.Ns[i], jr.Data[i], br.Ns[i], br.Data[i])
			}
		}
	}
}

// TestBinaryNackBackpressure mirrors TestBackpressure429: a full bank
// queue answers with a Nack frame carrying retry-after and partial
// accounting instead of an HTTP 429.
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

// TestBinaryMetricsCounters: the per-protocol counters split serving
// traffic by transport.
func TestBinaryMetricsCounters(t *testing.T) {
	s, c, _ := startBinaryServer(t, testConfig())
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
		"memctld_json_line_ops_total":   0,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
