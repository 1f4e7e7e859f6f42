package memserver

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// testConfig is a small server: 4 banks × 1024 lines, snapshots after
// every op so metrics are exact in assertions.
func testConfig() Config {
	return Config{
		Banks: 4, Lines: 4096, Scheme: SchemeRBSGDetector,
		Regions: 8, Interval: 4, Seed: 42,
		QueueDepth: 32, SnapshotEvery: 1,
	}
}

// startServer builds and starts a server with a binary listener and
// returns it with a connected client. Cleanup shuts the listener down
// before draining the actors.
func startServer(t *testing.T, cfg Config) (*Server, *BinaryClient) {
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
	return s, dialBinary(t, startBinaryListener(t, s))
}

// startBinaryListener attaches a binary protocol listener to s and
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

func dialBinary(t *testing.T, addr string) *BinaryClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startControl serves s's HTTP control plane and returns its client.
func startControl(t *testing.T, s *Server) *Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// drainedMetrics drains s and returns its final, exact /metrics totals
// (the actors publish a last snapshot on exit). The caller must have
// collected every answer it is waiting for.
func drainedMetrics(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return ParseMetrics(s.MetricsText())
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, c := startServer(t, testConfig())
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

// TestBatchMatchesSequential drives two identically seeded servers,
// one single-op frame at a time vs one big coalesced batch frame. Per-bank op order is
// identical, and every bank is deterministic given its op subsequence,
// so per-op latencies and final telemetry must agree exactly — batch
// coalescing must not change what the memory does.
func TestBatchMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(7)
	n := 500
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
		if rng.Float64() < 0.2 {
			ops[i].Read = true
			ops[i].Data = 0
		}
	}

	seqServer, seqClient := startServer(t, testConfig())
	seqNs := make([]uint64, n)
	for i, o := range ops {
		if o.Read {
			_, seqNs[i] = seqClient.Read(o.Line)
		} else {
			seqNs[i] = seqClient.Write(o.Line, pcm.Content(o.Data))
		}
	}

	batchServer, batchClient := startServer(t, testConfig())
	resp, err := batchClient.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != n || resp.Rejected != 0 {
		t.Fatalf("batch applied %d rejected %d, want %d/0", resp.Applied, resp.Rejected, n)
	}
	for i := range ops {
		if resp.Ns[i] != seqNs[i] {
			t.Fatalf("op %d (%+v): batch ns %d != sequential ns %d",
				i, ops[i], resp.Ns[i], seqNs[i])
		}
	}

	seqM := drainedMetrics(t, seqServer)
	batM := drainedMetrics(t, batchServer)
	for _, name := range []string{
		"memctld_demand_writes_total", "memctld_demand_reads_total",
		"memctld_set_writes_total", "memctld_reset_writes_total",
		"memctld_remap_events_total", "memctld_sim_elapsed_ns_total", "memctld_wear_max",
	} {
		if seqM[name] != batM[name] {
			t.Errorf("%s: sequential %v != batch %v", name, seqM[name], batM[name])
		}
	}
}

// TestMixedBankBatchPartialRejection: a batch spanning a full bank and
// an empty bank applies the empty bank's share and reports the rest
// rejected in a Nack frame: the applied op keeps its latency, the
// rejected one reports zero.
func TestMixedBankBatchPartialRejection(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bank 0 full; start only bank 1's actor so its share completes.
	s.actors[0].ch <- bankReq{}
	go s.actors[1].run()
	defer close(s.actors[1].ch)
	c := dialBinary(t, startBinaryListener(t, s))

	// LA 0 → bank 0 (rejected), LA 1 → bank 1 (applied).
	_, err = c.Batch([]BatchOp{{Line: 0, Data: 1}, {Line: 1, Data: 1}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if be.Resp == nil || be.Resp.Applied != 1 || be.Resp.Rejected != 1 {
		t.Fatalf("partial accounting: %+v", be.Resp)
	}
	if be.Resp.Ns[1] == 0 {
		t.Fatal("applied op lost its latency")
	}
	if be.Resp.Ns[0] != 0 {
		t.Fatal("rejected op reported a latency")
	}
}

func TestHealthzAndDrain(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ctl := startControl(t, s)
	c := dialBinary(t, startBinaryListener(t, s))

	if err := ctl.Healthz(); err != nil {
		t.Fatal(err)
	}
	c.Write(5, pcm.Ones)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Healthz(); err == nil {
		t.Fatal("healthz must fail while drained")
	}
	// New traffic is refused, not queued.
	_, err = c.Batch([]BatchOp{{Line: 0}})
	var we *WireError
	if !errors.As(err, &we) || we.Code != WireErrDraining {
		t.Fatalf("batch after drain: got %v, want WireError draining", err)
	}
	// Metrics stay up and reflect the final exact state.
	m, err := ctl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_demand_writes_total"] != 1 || m["memctld_set_writes_total"] != 1 {
		t.Fatalf("post-drain metrics wrong: writes %v set %v",
			m["memctld_demand_writes_total"], m["memctld_set_writes_total"])
	}
	if m["memctld_draining"] == 0 {
		t.Fatal("draining gauge not set")
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsCounters(t *testing.T) {
	s, c := startServer(t, testConfig())
	for i := uint64(0); i < 40; i++ {
		c.Write(i, pcm.Zeros)
	}
	for i := uint64(0); i < 24; i++ {
		c.Write(i, pcm.Ones)
	}
	for i := uint64(0); i < 10; i++ {
		c.Read(i)
	}
	m := drainedMetrics(t, s)
	checks := map[string]float64{
		"memctld_demand_writes_total": 64,
		"memctld_demand_reads_total":  10,
		"memctld_reset_writes_total":  40,
		"memctld_set_writes_total":    24,
		"memctld_banks":               4,
		"memctld_lines":               4096,
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["memctld_device_writes_total"] < 64 {
		t.Errorf("device writes %v below demand writes", m["memctld_device_writes_total"])
	}
	if m["memctld_wear_max"] == 0 {
		t.Error("wear max still zero after 64 writes")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Banks: 3, Lines: 100}); err == nil {
		t.Error("non-dividing lines must fail")
	}
	if _, err := New(Config{Banks: 2, Lines: 2 * 1000}); err == nil {
		t.Error("non-power-of-two per-bank lines must fail for randomized schemes")
	}
	if _, err := New(Config{Banks: 2, Lines: 2000, Scheme: SchemeNone}); err != nil {
		t.Errorf("passthrough scheme needs no power of two: %v", err)
	}
	if _, err := New(Config{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme must fail")
	}
}
