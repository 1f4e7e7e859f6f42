package memserver_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"securityrbsg/internal/memrouter"
	"securityrbsg/internal/memserver"
	"securityrbsg/internal/pcm"
)

// The frame server's connection contract, pinned once for every daemon
// that serves it: each test below runs against memctld (a memserver
// Server) and memrouterd (a Router over one memserver shard).

// daemonLines is the line space every daemon in the table serves.
const daemonLines = 4096

func daemonConfig() memserver.Config {
	return memserver.Config{
		Banks: 4, Lines: daemonLines, Scheme: memserver.SchemeRBSGDetector,
		Regions: 8, Interval: 4, Seed: 42,
		QueueDepth: 32, SnapshotEvery: 1,
	}
}

// booted is a daemon whose back end runs but whose frame server does
// not serve yet.
type booted struct {
	serve    func(net.Listener) error
	shutdown func(context.Context) error
	rejects  func() float64 // the daemon's reject counter, from /metrics
}

var daemons = []struct {
	name string
	boot func(t *testing.T) booted
}{
	{"memctld", func(t *testing.T) booted {
		s := startShard(t)
		return booted{s.ServeBinary, s.ShutdownBinary, func() float64 {
			return memserver.ParseMetrics(s.MetricsText())["memctld_binary_reject_total"]
		}}
	}},
	{"memrouterd", func(t *testing.T) booted {
		shard := startShard(t)
		r, err := memrouter.New(memrouter.Config{Shards: []string{serve(t, booted{
			serve: shard.ServeBinary, shutdown: shard.ShutdownBinary,
		}).addr}, Lines: daemonLines})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		return booted{r.ServeBinary, r.Shutdown, func() float64 {
			return memserver.ParseMetrics(r.MetricsText())["router_reject_total"]
		}}
	}},
}

// eachDaemon runs test once per daemon, as a subtest named after it.
func eachDaemon(t *testing.T, test func(t *testing.T, boot func(t *testing.T) booted)) {
	for _, d := range daemons {
		t.Run(d.name, func(t *testing.T) { test(t, d.boot) })
	}
}

// startShard builds and starts a memserver whose actors drain when the
// test ends.
func startShard(t *testing.T) *memserver.Server {
	t.Helper()
	s, err := memserver.New(daemonConfig())
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
	return s
}

// serving is a booted daemon serving on a loopback listener.
type serving struct {
	addr string
	stop func() // shut down and wait for Serve to return; idempotent
}

// serve starts b on a fresh loopback listener; it stops when the test
// ends at the latest (before the back end's own cleanup runs).
func serve(t *testing.T, b booted) serving {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := b.shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-done; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return serving{ln.Addr().String(), stop}
}

func dial(t *testing.T, addr string) *memserver.BinaryClient {
	t.Helper()
	c, err := memserver.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawDial opens a plain TCP connection for tests that speak the
// protocol by hand.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readRawFrame reads one frame body off a raw connection.
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return body
}

// wantErrFrame asserts body is an Err frame with the given code.
func wantErrFrame(t *testing.T, body []byte, code uint16) {
	t.Helper()
	if len(body) < memserver.WireHdrSize+2 || body[0] != memserver.WireVersion || body[1] != memserver.FrameErr {
		t.Fatalf("want Err frame, got body % x", body)
	}
	if got := binary.LittleEndian.Uint16(body[memserver.WireHdrSize:]); got != code {
		t.Fatalf("Err code %d (body % x), want %d", got, body, code)
	}
}

// wantClosed asserts the server closed conn.
func wantClosed(t *testing.T, conn net.Conn, after string) {
	t.Helper()
	var one [1]byte
	if _, err := conn.Read(one[:]); err != io.EOF {
		t.Fatalf("connection not closed after %s: %v", after, err)
	}
}

// TestBinaryOversizedFrameClosesConn: a length prefix over WireMaxBody
// is answered with a typed Err frame and the connection closes — the
// server will not stream-skip an attacker-sized body.
func TestBinaryOversizedFrameClosesConn(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		b := boot(t)
		conn := rawDial(t, serve(t, b).addr)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], memserver.WireMaxBody+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrTooLarge)
		wantClosed(t, conn, "oversized frame")
		if got := b.rejects(); got != 1 {
			t.Fatalf("reject counter = %v, want 1", got)
		}
	})
}

// TestBinaryMalformedKeepsConn: structurally broken bodies get typed
// Err frames but — being length-delimited — do not cost the
// connection.
func TestBinaryMalformedKeepsConn(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		conn := rawDial(t, serve(t, boot(t)).addr)
		send := func(body []byte) {
			t.Helper()
			if _, err := conn.Write(memserver.AppendFrame(nil, body)); err != nil {
				t.Fatal(err)
			}
		}
		v := byte(memserver.WireVersion)

		// Body below the version+type prelude.
		send([]byte{v})
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrMalformed)

		// Unknown frame type.
		send([]byte{v, 0x7f})
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrMalformed)

		// Count disagreeing with the payload length.
		body := []byte{v, memserver.FrameBatchReq}
		body = binary.LittleEndian.AppendUint32(body, 3) // claims 3 ops, carries none
		send(body)
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrMalformed)

		// Flags outside {0,1}.
		body = memserver.AppendBatchReqBody(nil, v, []memserver.BatchOp{{Line: 1}})
		body[len(body)-2] = 2
		send(body)
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrMalformed)

		// Zero ops.
		send(memserver.AppendBatchReqBody(nil, v, nil))
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrEmpty)

		// The same connection still serves a valid batch.
		send(memserver.AppendBatchReqBody(nil, v, []memserver.BatchOp{{Line: 1}}))
		resp := readRawFrame(t, conn)
		if len(resp) < memserver.WireHdrSize || resp[0] != v || resp[1] != memserver.FrameBatchResp {
			t.Fatalf("valid batch after rejects: got frame % x", resp)
		}
	})
}

// TestBinaryVersionSkew pins the versioning rule: a frame from the
// future gets a typed Err frame back — listable by the client — and
// the connection survives to serve the current version.
func TestBinaryVersionSkew(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		c := dial(t, serve(t, boot(t)).addr)
		c.Version = memserver.WireVersion + 1
		_, err := c.Batch([]memserver.BatchOp{{Line: 1}})
		var we *memserver.WireError
		if !errors.As(err, &we) {
			t.Fatalf("skewed batch: got %v, want *WireError", err)
		}
		if we.Code != memserver.WireErrVersion {
			t.Fatalf("skewed batch: code %d, want %d (unsupported-version)", we.Code, memserver.WireErrVersion)
		}
		if !strings.Contains(we.Error(), "unsupported-version") ||
			!strings.Contains(we.Error(), "known codes:") {
			t.Fatalf("skew error not listable: %q", we.Error())
		}
		// Same connection, correct version: framing stayed intact.
		c.Version = 0
		resp, err := c.Batch([]memserver.BatchOp{{Line: 1}})
		if err != nil || resp.Applied != 1 {
			t.Fatalf("post-skew batch on same conn: resp=%+v err=%v", resp, err)
		}
	})
}

// TestBinaryBadOp: semantically invalid ops are rejected whole with a
// typed Err frame, before any bank sees the batch.
func TestBinaryBadOp(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		c := dial(t, serve(t, boot(t)).addr)
		for _, ops := range [][]memserver.BatchOp{
			{{Line: daemonLines}},        // out of the line space
			{{Line: 1, Data: 3}},         // content class outside {0,1,2}
			{{Line: 1}, {Line: 1 << 40}}, // one good op does not save the batch
		} {
			_, err := c.Batch(ops)
			var we *memserver.WireError
			if !errors.As(err, &we) || we.Code != memserver.WireErrBadOp {
				t.Fatalf("ops %+v: got %v, want WireError bad-op", ops, err)
			}
		}
		// Rejection is pre-execution: nothing was applied.
		if got, _ := c.Read(1); got != pcm.Zeros {
			t.Fatalf("rejected batch mutated line 1: %v", got)
		}
	})
}

// TestBinaryDrainGoodbye: a connection parked in a read when shutdown
// begins is told why (a draining Err frame) before the socket closes.
func TestBinaryDrainGoodbye(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		srv := serve(t, boot(t))
		conn := rawDial(t, srv.addr)
		// Prove the connection is live, then leave its reader parked.
		frame := memserver.AppendBatchReqBody(nil, memserver.WireVersion, []memserver.BatchOp{{Line: 9}})
		if _, err := conn.Write(memserver.AppendFrame(nil, frame)); err != nil {
			t.Fatal(err)
		}
		readRawFrame(t, conn)

		srv.stop()
		wantErrFrame(t, readRawFrame(t, conn), memserver.WireErrDraining)
		wantClosed(t, conn, "drain goodbye")
	})
}

// TestBinaryShutdownReleasesGoroutines: once Shutdown returns, every
// goroutine the frame server started — the accept loop and each
// connection's reader and writer — is gone, including those of
// connections that were mid-pipeline or parked in a read.
func TestBinaryShutdownReleasesGoroutines(t *testing.T) {
	eachDaemon(t, func(t *testing.T, boot func(t *testing.T) booted) {
		b := boot(t)
		before := runtime.NumGoroutine()
		srv := serve(t, b)

		lockstep := dial(t, srv.addr)
		if _, err := lockstep.Batch([]memserver.BatchOp{{Line: 3, Data: 1}}); err != nil {
			t.Fatal(err)
		}
		pipelined := dial(t, srv.addr)
		for i := 0; i < 8; i++ {
			if err := pipelined.SendBatch([]memserver.BatchOp{{Line: uint64(i), Data: 2}}); err != nil {
				t.Fatal(err)
			}
		}
		parked := rawDial(t, srv.addr)

		srv.stop()
		lockstep.Close()
		pipelined.Close()
		parked.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after shutdown, %d before serving:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
