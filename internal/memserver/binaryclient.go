package memserver

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"securityrbsg/internal/pcm"
)

// BinaryClient speaks the binary wire protocol (wire.go) over one TCP
// connection. Its Write and Read methods satisfy attack.Target —
// logical address in, simulated latency out — so every attacker in
// internal/attack runs unmodified against a live server; that is what
// the wire-level RTA regression drives.
//
// The client supports two calling styles over the same connection:
//
//   - Lockstep: Batch / ReadBatch send one frame and block for its
//     response — the PR 9 behavior, one request in flight.
//   - Pipelined: SendBatch / SendReadBatch enqueue frames without
//     waiting, RecvBatch / RecvReadBatch complete them strictly in
//     send order (the server processes a connection's frames
//     sequentially and answers in order, so in-order completion is a
//     protocol property, not a client guess). The caller owns the
//     window: keep at most a bounded number of sends un-received so a
//     stalled server backs pressure up instead of ballooning socket
//     buffers. Pipelining changes nothing on the wire — every frame is
//     a v1 frame an unpipelined server answers identically — so there
//     is no negotiation and no fallback to manage.
//
// Concurrency: send-side state (the encode buffer) and recv-side state
// (the header and decode buffers) are disjoint, so ONE goroutine may
// send while ONE other goroutine receives — the shape the router's
// per-connection sender/receiver pairs use. The client is not safe for
// two concurrent senders or two concurrent receivers, and the lockstep
// calls (which both send and receive) must not overlap pipelined use.
// loadgen gives each worker its own client.
type BinaryClient struct {
	conn net.Conn
	// Version overrides the wire version byte on outgoing frames; zero
	// means the current protocol version. Tests use it to probe how
	// servers answer version skew.
	Version uint8

	// Send-side state: owned by the sending goroutine.
	wbuf []byte

	// Recv-side state: owned by the receiving goroutine.
	hdr  [4]byte
	rbuf []byte

	// Lockstep-call state (Batch/ReadBatch/Write/Read only).
	op    [1]BatchOp
	resp  BatchResponse
	rresp ReadBatchResponse
}

// DialBinary connects to a memctld binary listener (host:port).
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("binary dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // closed-loop batches must not wait out Nagle
	}
	return &BinaryClient{conn: conn}, nil
}

// Close tears down the connection.
func (c *BinaryClient) Close() error { return c.conn.Close() }

// version resolves the wire version to send.
func (c *BinaryClient) version() uint8 {
	if c.Version != 0 {
		return c.Version
	}
	return WireVersion
}

// SendBatch writes one batch frame without waiting for its response.
// The ops are fully serialized before this returns; the caller may
// reuse the slice immediately. Complete the frame with RecvBatch —
// responses arrive in send order.
//
//rbsglint:hotpath
func (c *BinaryClient) SendBatch(ops []BatchOp) error {
	// Compose the body after a 4-byte hole, then fill the length prefix:
	// one buffer, one conn.Write, no staging copy.
	if cap(c.wbuf) < 4 {
		c.wbuf = make([]byte, 4)
	}
	c.wbuf = AppendBatchReqBody(c.wbuf[:4], c.version(), ops)
	binary.LittleEndian.PutUint32(c.wbuf[:4], uint32(len(c.wbuf)-4))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("binary write: %w", err)
	}
	return nil
}

// SendReadBatch writes one streaming read-batch frame (no per-op ns in
// the response) without waiting. Complete it with RecvReadBatch.
//
//rbsglint:hotpath
func (c *BinaryClient) SendReadBatch(lines []uint64) error {
	if cap(c.wbuf) < 4 {
		c.wbuf = make([]byte, 4)
	}
	c.wbuf = appendReadReqBody(c.wbuf[:4], c.version(), lines)
	binary.LittleEndian.PutUint32(c.wbuf[:4], uint32(len(c.wbuf)-4))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("binary write: %w", err)
	}
	return nil
}

// RecvBatch reads the oldest outstanding batch response into resp,
// reusing resp's slice capacity. On a Nack frame it returns a
// *BackpressureError carrying the retry-after and the partial
// accounting (decoded into resp); on an Err frame it returns the typed
// *WireError.
//
//rbsglint:hotpath
func (c *BinaryClient) RecvBatch(resp *BatchResponse) error {
	typ, payload, err := c.recv()
	switch {
	case err != nil:
		return err
	case typ == FrameBatchResp:
		if code := decodeBatchRespPayload(payload, resp); code != 0 {
			return fmt.Errorf("binary response payload failed decode (code %d)", code)
		}
		return nil
	case typ == FrameNack:
		be := nackError(payload)
		if decodeBatchRespPayload(payload[4:], resp) == 0 {
			be.Resp = resp
		}
		return be
	default:
		//rbsglint:allow hotpathalloc -- unknown-frame error path
		return fmt.Errorf("binary response frame type %d unknown", typ)
	}
}

// RecvReadBatch reads the oldest outstanding read-batch response into
// r. Nacks decode the partial read accounting into r and return a
// *BackpressureError; Err frames return the typed *WireError.
//
//rbsglint:hotpath
func (c *BinaryClient) RecvReadBatch(r *ReadBatchResponse) error {
	typ, payload, err := c.recv()
	switch {
	case err != nil:
		return err
	case typ == FrameReadResp:
		if code := decodeReadRespPayload(payload, r); code != 0 {
			return fmt.Errorf("binary read response payload failed decode (code %d)", code)
		}
		return nil
	case typ == FrameNack:
		be := nackError(payload)
		if decodeReadRespPayload(payload[4:], r) == 0 {
			be.ReadResp = r
		}
		return be
	default:
		//rbsglint:allow hotpathalloc -- unknown-frame error path
		return fmt.Errorf("binary read response frame type %d unknown", typ)
	}
}

// recv reads the oldest outstanding response frame and returns its
// type and payload. An Err frame comes back as the typed *WireError; a
// Nack payload is at least its retry-after field long.
//
//rbsglint:hotpath
func (c *BinaryClient) recv() (typ byte, payload []byte, err error) {
	body, err := c.readFrame()
	if err != nil {
		return 0, nil, err
	}
	if len(body) < WireHdrSize {
		return 0, nil, fmt.Errorf("binary response body %d bytes, below header size", len(body))
	}
	if body[0] != WireVersion {
		return 0, nil, fmt.Errorf("binary response version %d, client speaks %d", body[0], WireVersion)
	}
	typ, payload = body[1], body[WireHdrSize:]
	switch typ {
	case FrameErr:
		//rbsglint:allow hotpathalloc -- protocol-reject branch only; never on the steady-state path
		we, ok := decodeErrBody(payload)
		if !ok {
			return 0, nil, fmt.Errorf("binary err frame payload failed decode")
		}
		return 0, nil, we
	case FrameNack:
		if len(payload) < 4 {
			return 0, nil, fmt.Errorf("binary nack payload %d bytes, below retry-after field", len(payload))
		}
	}
	return typ, payload, nil
}

// nackError starts the backpressure error a Nack payload describes.
func nackError(payload []byte) *BackpressureError {
	//rbsglint:allow hotpathalloc -- backpressure branch only; one error value per Nacked frame
	return &BackpressureError{
		RetryAfter: time.Duration(binary.LittleEndian.Uint32(payload)) * time.Second,
	}
}

// Batch sends one batch frame and blocks for its answer (lockstep).
// The returned response is the client's own buffer, valid until the
// next lockstep call.
func (c *BinaryClient) Batch(ops []BatchOp) (*BatchResponse, error) {
	if err := c.SendBatch(ops); err != nil {
		return nil, err
	}
	if err := c.RecvBatch(&c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// ReadBatch reads lines through the streaming read-batch frame
// (lockstep): the response carries data and batch accounting but no
// per-op latencies. The returned response is the client's own buffer,
// valid until the next lockstep call.
func (c *BinaryClient) ReadBatch(lines []uint64) (*ReadBatchResponse, error) {
	if err := c.SendReadBatch(lines); err != nil {
		return nil, err
	}
	if err := c.RecvReadBatch(&c.rresp); err != nil {
		return nil, err
	}
	return &c.rresp, nil
}

// readFrame reads one length-prefixed frame body into the client's
// receive buffer.
//
//rbsglint:hotpath
func (c *BinaryClient) readFrame() ([]byte, error) {
	if err := readFull(c.conn, c.hdr[:]); err != nil {
		return nil, fmt.Errorf("binary read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(c.hdr[:])
	if n > WireMaxBody {
		return nil, fmt.Errorf("binary response body %d bytes over limit %d", n, WireMaxBody)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if err := readFull(c.conn, c.rbuf); err != nil {
		return nil, fmt.Errorf("binary read body: %w", err)
	}
	return c.rbuf, nil
}

// retryBatch is Batch with bounded backpressure retries — demand ops
// must not be silently dropped (an attacker's write stream, like a
// CPU's, just stalls until the controller accepts it).
func (c *BinaryClient) retryBatch(ops []BatchOp) *BatchResponse {
	for {
		resp, err := c.Batch(ops)
		if err == nil {
			return resp
		}
		be, ok := err.(*BackpressureError)
		if !ok {
			panic(fmt.Errorf("memserver binary client: batch: %w", err)) //rbsglint:allow panicpolicy -- documented attack.Target contract: a broken server is fatal in the tests/demos this client exists for
		}
		time.Sleep(be.RetryAfter)
	}
}

// Write issues one demand write and returns the simulated latency in
// nanoseconds. It panics on transport errors: it exists to satisfy
// attack.Target for tests and demos, where a broken server is fatal.
func (c *BinaryClient) Write(la uint64, content pcm.Content) uint64 {
	c.op[0] = BatchOp{Line: la, Data: uint8(content)}
	resp := c.retryBatch(c.op[:1])
	return resp.Ns[0]
}

// Read issues one demand read; same contract as Write.
func (c *BinaryClient) Read(la uint64) (pcm.Content, uint64) {
	c.op[0] = BatchOp{Line: la, Read: true}
	resp := c.retryBatch(c.op[:1])
	return pcm.Content(resp.Data[0]), resp.Ns[0]
}
