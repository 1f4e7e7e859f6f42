package memserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The frame server: one implementation of the binary listener (wire.go)
// for every daemon that speaks the protocol. memctld and memrouterd
// differ only in the two-phase FrameHandler they plug in.
//
// Each connection runs a reader and a writer goroutine joined by a
// bounded queue of pendingFrames frames. The reader decodes and
// validates a frame, hands the ops to the handler's Start (which
// dispatches them: to the bank actors, or to the shard pools) and
// queues the frame; the writer calls Finish on queued frames strictly
// in arrival order and writes each response. A pipelined client thus
// overlaps its window across the server's own work, and a lockstep
// client sees a plain request/response server. Frames of one
// connection reach every bank actor (or shard) in arrival order; a
// Nacked frame may be overtaken by a later frame that was accepted.
//
// Backpressure maps the JSON 429+Retry-After onto a Nack frame carrying
// the retry-after seconds and the partial accounting; draining maps 503
// onto a typed Err frame. Per-op simulated latencies cross this wire
// exactly as they cross the JSON one, so the timing side channel is
// transport-neutral.

// FrameHandler is one daemon's half of a FrameServer: two phases over
// the handler's own pooled per-frame state.
type FrameHandler interface {
	// Start dispatches one decoded, validated frame and returns its
	// in-flight state, or nil when the daemon is draining (the server
	// then answers Err draining and closes the connection). ops is the
	// connection's decode buffer: Start must copy what it keeps.
	Start(ops []BatchOp, read bool) any
	// Finish waits for a frame Start dispatched, appends its complete
	// response frame to dst, and recycles the frame state.
	Finish(f any, dst []byte) []byte
}

const (
	// pendingFrames bounds the frames one connection has read but not
	// yet answered: room for the 32-frame windows the router's shard
	// pools and pipelining clients keep in flight, while a client that
	// stops reading backs up into TCP instead of server memory.
	pendingFrames = 32

	// frameKeep is the largest frame buffer a connection keeps between
	// frames; a larger one (up to WireMaxBody) is dropped once used, so
	// per-connection memory does not grow to the largest frame seen.
	frameKeep = 64 << 10
)

// FrameServer serves the binary protocol on any number of listeners
// for one FrameHandler.
type FrameServer struct {
	h     FrameHandler
	lines uint64 // ops must address lines below this

	mu      sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing bool

	frames  atomic.Uint64 // frame bodies read
	rejects atomic.Uint64 // frames answered with an Err before execution
}

// NewFrameServer returns a server that validates ops against a space
// of lines lines and executes them through h.
func NewFrameServer(h FrameHandler, lines uint64) *FrameServer {
	return &FrameServer{h: h, lines: lines, conns: make(map[net.Conn]struct{})}
}

// Frames reports the frame bodies read so far.
func (fs *FrameServer) Frames() uint64 { return fs.frames.Load() }

// Rejects reports the frames answered with an Err frame instead of
// executing (malformed, version-skewed, oversized, bad op, draining).
func (fs *FrameServer) Rejects() uint64 { return fs.rejects.Load() }

// Serve accepts connections on ln until the listener closes (Shutdown
// closes it). It returns nil on a clean close.
func (fs *FrameServer) Serve(ln net.Listener) error {
	fs.mu.Lock()
	if fs.closing {
		fs.mu.Unlock()
		ln.Close()
		return nil
	}
	fs.lns = append(fs.lns, ln)
	fs.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		fs.mu.Lock()
		if fs.closing {
			fs.mu.Unlock()
			c.Close()
			continue
		}
		fs.conns[c] = struct{}{}
		fs.wg.Add(1)
		fs.mu.Unlock()
		go fs.serveConn(c)
	}
}

// Shutdown stops the server: listeners close, blocked reads are woken
// by an immediate deadline so each connection answers its client with
// a draining Err frame after its queued frames, and every connection
// is waited for (or force-closed when ctx expires). The handler's back
// end (bank actors, shard pools) must keep running until it returns.
func (fs *FrameServer) Shutdown(ctx context.Context) error {
	fs.mu.Lock()
	fs.closing = true
	for _, ln := range fs.lns {
		ln.Close()
	}
	fs.lns = nil
	for c := range fs.conns {
		c.SetReadDeadline(time.Unix(0, 1)) //rbsglint:allow simdeterminism -- connection teardown plumbing, not simulation state
	}
	fs.mu.Unlock()

	done := make(chan struct{})
	go func() { fs.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		fs.mu.Lock()
		for c := range fs.conns {
			c.Close()
		}
		fs.mu.Unlock()
		return fmt.Errorf("frame server shutdown: %w", ctx.Err())
	}
}

func (fs *FrameServer) isClosing() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.closing
}

// pendingFrame is one read frame awaiting its answer: the handler's
// in-flight state, or (f nil) the Err frame to send instead.
type pendingFrame struct {
	f    any
	code uint16
	msg  string
}

// fatal reports whether the connection closes after this answer.
func (p pendingFrame) fatal() bool {
	return p.code == WireErrTooLarge || p.code == WireErrDraining
}

// start runs one frame body through decode, validation and the
// handler's Start. ops is the connection's decode buffer.
//
//rbsglint:hotpath
func (fs *FrameServer) start(body []byte, ops *[]BatchOp) pendingFrame {
	fs.frames.Add(1)
	var (
		read bool
		p    pendingFrame
	)
	*ops, read, p.code, p.msg = DecodeFrame(body, *ops, fs.lines)
	if p.code == 0 {
		if p.f = fs.h.Start(*ops, read); p.f != nil {
			return p
		}
		p.code, p.msg = WireErrDraining, "server draining"
	}
	fs.rejects.Add(1)
	return p
}

// finish appends the answer to a frame start produced.
//
//rbsglint:hotpath
func (fs *FrameServer) finish(p pendingFrame, dst []byte) []byte {
	if p.f == nil {
		return AppendErrFrame(dst, p.code, p.msg)
	}
	return fs.h.Finish(p.f, dst)
}

// frameConn is one connection: the reader's buffers (hdr, body, ops)
// and the writer's (out), with the pending queue between them.
type frameConn struct {
	fs      *FrameServer
	c       net.Conn
	pending chan pendingFrame
	hdr     [4]byte
	body    []byte
	ops     []BatchOp
	out     []byte
}

// serveConn runs one connection to completion: this goroutine reads, a
// second one writes, and the connection closes once every frame the
// reader queued has been answered.
func (fs *FrameServer) serveConn(c net.Conn) {
	fc := &frameConn{fs: fs, c: c, pending: make(chan pendingFrame, pendingFrames)}
	written := make(chan struct{})
	go func() {
		fc.writeLoop()
		close(written)
	}()
	fc.readLoop()
	close(fc.pending)
	<-written
	c.Close()
	fs.mu.Lock()
	delete(fs.conns, c)
	fs.mu.Unlock()
	fs.wg.Done()
}

// readLoop reads and starts frames until the client hangs up, a frame
// costs the connection, or a drain wakes it (the goodbye Err frame is
// then the last answer queued).
//
//rbsglint:hotpath
func (fc *frameConn) readLoop() {
	for {
		if err := readFull(fc.c, fc.hdr[:]); err != nil {
			if fc.fs.isClosing() {
				fc.pending <- pendingFrame{code: WireErrDraining, msg: "server draining"}
			}
			return
		}
		n := binary.LittleEndian.Uint32(fc.hdr[:])
		if n > WireMaxBody {
			// Hard reject: the server will not stream-skip an
			// attacker-sized body to stay in frame sync.
			fc.fs.rejects.Add(1)
			fc.pending <- pendingFrame{code: WireErrTooLarge, msg: "frame body over limit"}
			return
		}
		if cap(fc.body) < int(n) {
			fc.body = make([]byte, n)
		}
		fc.body = fc.body[:n]
		if err := readFull(fc.c, fc.body); err != nil {
			return
		}
		p := fc.fs.start(fc.body, &fc.ops)
		if cap(fc.body) > frameKeep {
			fc.body, fc.ops = nil, nil // Start copied the ops out
		}
		fc.pending <- p
		if p.fatal() {
			return
		}
	}
}

// writeLoop answers queued frames in arrival order. After a write error
// it keeps finishing frames without writing, so their dispatched work
// is still collected and recycled.
//
//rbsglint:hotpath
func (fc *frameConn) writeLoop() {
	dead := false
	for p := range fc.pending {
		fc.out = fc.fs.finish(p, fc.out[:0])
		if !dead {
			if _, err := fc.c.Write(fc.out); err != nil {
				dead = true
				fc.c.Close() // wakes the reader
			}
		}
		if cap(fc.out) > frameKeep {
			fc.out = nil
		}
	}
}

// readFull fills buf from c (io.ReadFull without the out-of-module
// call: c.Read is dynamic dispatch the hot-path contract trusts).
//
//rbsglint:hotpath
func readFull(c net.Conn, buf []byte) error {
	for len(buf) > 0 {
		n, err := c.Read(buf)
		buf = buf[n:]
		if err != nil {
			if len(buf) == 0 {
				return nil
			}
			return err
		}
	}
	return nil
}

// binaryFrames is memctld's FrameHandler: Start coalesces a frame's ops
// per bank and enqueues them to the bank actors, Finish collects the
// results and encodes the response. The per-frame state is a pooled
// batchScratch, the same engine the JSON handler drives.
type binaryFrames struct{ s *Server }

//rbsglint:hotpath
func (h binaryFrames) Start(ops []BatchOp, read bool) any {
	b := getBatchScratch(h.s.cfg.Banks)
	b.read = read
	if h.s.enqueueBatch(b, ops) && b.resp.Rejected == len(ops) {
		putBatchScratch(b)
		return nil
	}
	return b
}

//rbsglint:hotpath
func (h binaryFrames) Finish(f any, dst []byte) []byte {
	b := f.(*batchScratch)
	h.s.collectBatch(b)
	resp := &b.resp
	h.s.binLineOps.Add(uint64(resp.Applied))
	if b.read {
		h.s.binReadOps.Add(uint64(resp.Applied))
	}
	dst = AppendResponse(dst, resp, b.read, resp.Rejected > 0, NackRetryAfterSecs)
	putBatchScratch(b)
	return dst
}

// ServeBinary accepts binary-protocol connections on ln until the
// listener closes (ShutdownBinary closes it, as does memctld on
// SIGTERM). It returns nil on a clean close.
func (s *Server) ServeBinary(ln net.Listener) error { return s.bin.Serve(ln) }

// ShutdownBinary stops the binary protocol (FrameServer.Shutdown). Call
// it before Drain, like http.Server.Shutdown: the actors must still be
// running while in-flight frames finish.
func (s *Server) ShutdownBinary(ctx context.Context) error {
	if err := s.bin.Shutdown(ctx); err != nil {
		return fmt.Errorf("memserver: binary %w", err)
	}
	return nil
}
