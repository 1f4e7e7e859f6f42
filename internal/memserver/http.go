package memserver

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"securityrbsg/internal/pcm"
)

// The wire API. Content classes travel as the pcm.Content integers:
// 0 = ALL-0 (RESET write), 1 = ALL-1 (SET write), 2 = MIXED. Responses
// carry simulated device latency in nanoseconds — the value the paper's
// attacker observes — so the timing side channel crosses the wire
// intact (internal/memserver's attack regression test depends on it).

// WriteRequest is the body of POST /v1/write.
type WriteRequest struct {
	Line uint64 `json:"l"`
	Data uint8  `json:"d"`
}

// WriteResponse answers a single write.
type WriteResponse struct {
	Ns uint64 `json:"ns"`
}

// ReadRequest is the body of POST /v1/read.
type ReadRequest struct {
	Line uint64 `json:"l"`
}

// ReadResponse answers a single read.
type ReadResponse struct {
	Ns   uint64 `json:"ns"`
	Data uint8  `json:"d"`
}

// BatchOp is one operation inside POST /v1/batch. The zero op is a
// write of ALL-0; set R for a read, D for the content class.
type BatchOp struct {
	Line uint64 `json:"l"`
	Read bool   `json:"r,omitempty"`
	Data uint8  `json:"d,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Ops are coalesced into
// one queue entry per touched bank; op order is preserved within each
// bank but banks execute concurrently, so ops to different banks may
// interleave with other requests. A batch is not atomic under
// backpressure: banks whose queues are full reject their share while
// the rest applies (the response says how much of each happened).
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResponse answers a batch. Ns and Data align with Ops; rejected
// ops report zero latency. NsMax is the slowest op — the latency a
// stalled demand request would have observed behind remapping.
type BatchResponse struct {
	Applied  int      `json:"applied"`
	Rejected int      `json:"rejected"`
	NsSum    uint64   `json:"ns_sum"`
	NsMax    uint64   `json:"ns_max"`
	Ns       []uint64 `json:"ns"`
	Data     []uint8  `json:"d"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// retryAfter is the Retry-After header value (seconds) sent with 429.
const retryAfter = "1"

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/write", s.handleWrite)
	mux.HandleFunc("POST /v1/read", s.handleRead)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	//rbsglint:allow hotpathalloc -- error/utility responses only; the hot endpoints answer through writeRaw's pooled buffers
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//rbsglint:allow hotpathalloc -- encoder allocation is confined to the error/utility path above
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	//rbsglint:allow hotpathalloc -- runs once per rejected request, never on the steady-state path
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// submitErr maps a submit failure to its HTTP status.
func (s *Server) submitErr(w http.ResponseWriter, err error) {
	switch err {
	case errBusy:
		//rbsglint:allow hotpathalloc -- backpressure branch only; one header slice per 429
		w.Header().Set("Retry-After", retryAfter)
		writeErr(w, http.StatusTooManyRequests, "bank queue full, retry later")
	case errDraining:
		writeErr(w, http.StatusServiceUnavailable, "server draining")
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeInto reads the whole body into the caller's pooled buffer and
// unmarshals from its bytes, so the hot endpoints pay no per-request
// decoder or read-buffer allocations (json.Unmarshal reuses slice
// capacity already present in v, e.g. BatchRequest.Ops).
func (s *Server) decodeInto(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, v any) bool {
	buf.Reset()
	//rbsglint:allow hotpathalloc -- reads into the pooled request buffer; growth amortizes to zero once the pool is warm
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	//rbsglint:allow hotpathalloc -- stdlib Unmarshal is the accepted decode cost; it fills caller-owned slices whose capacity the pooled scratch retains
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// writeRaw sends a pre-encoded JSON body.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	//rbsglint:allow hotpathalloc -- one constant Content-Type header slice per response; does not scale with ops
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// The hot-path responses are appended by hand into pooled buffers —
// byte-for-byte what encoding/json would emit for the response structs
// (including []uint8 as base64 and the encoder's trailing newline), so
// any stdlib-JSON client decodes them unchanged, without the marshal
// machinery's per-request allocations.

func appendWriteResponse(b []byte, ns uint64) []byte {
	b = append(b, `{"ns":`...)
	b = strconv.AppendUint(b, ns, 10)
	return append(b, "}\n"...)
}

func appendReadResponse(b []byte, ns uint64, data uint8) []byte {
	b = append(b, `{"ns":`...)
	b = strconv.AppendUint(b, ns, 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendUint(b, uint64(data), 10)
	return append(b, "}\n"...)
}

func appendBatchResponse(b []byte, r *BatchResponse) []byte {
	b = append(b, `{"applied":`...)
	b = strconv.AppendInt(b, int64(r.Applied), 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(r.Rejected), 10)
	b = append(b, `,"ns_sum":`...)
	b = strconv.AppendUint(b, r.NsSum, 10)
	b = append(b, `,"ns_max":`...)
	b = strconv.AppendUint(b, r.NsMax, 10)
	b = append(b, `,"ns":[`...)
	for i, v := range r.Ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	b = append(b, `],"d":"`...)
	b = base64.StdEncoding.AppendEncode(b, r.Data)
	return append(b, "\"}\n"...)
}

func (s *Server) checkOp(w http.ResponseWriter, line uint64, data uint8) bool {
	if line >= s.cfg.Lines {
		writeErr(w, http.StatusBadRequest, "line %d out of space of %d lines", line, s.cfg.Lines)
		return false
	}
	if data > 2 {
		writeErr(w, http.StatusBadRequest, "content class %d not in {0,1,2}", data)
		return false
	}
	return true
}

//rbsglint:hotpath
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	var req WriteRequest
	if !s.decodeInto(w, r, &sc.body, &req) || !s.checkOp(w, req.Line, req.Data) {
		return
	}
	bank, local := s.mem.Route(req.Line)
	sc.ops[0] = op{local: local, content: pcm.Content(req.Data)}
	rb, err := s.submit(bank, sc.ops[:1])
	if err != nil {
		s.submitErr(w, err)
		return
	}
	ns := rb.res[0].ns
	putResBuf(rb)
	s.jsonLineOps.Add(1)
	sc.out = appendWriteResponse(sc.out[:0], ns)
	writeRaw(w, http.StatusOK, sc.out)
}

//rbsglint:hotpath
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	var req ReadRequest
	if !s.decodeInto(w, r, &sc.body, &req) || !s.checkOp(w, req.Line, 0) {
		return
	}
	bank, local := s.mem.Route(req.Line)
	sc.ops[0] = op{local: local, read: true}
	rb, err := s.submit(bank, sc.ops[:1])
	if err != nil {
		s.submitErr(w, err)
		return
	}
	ns, data := rb.res[0].ns, uint8(rb.res[0].content)
	putResBuf(rb)
	s.jsonLineOps.Add(1)
	sc.out = appendReadResponse(sc.out[:0], ns, data)
	writeRaw(w, http.StatusOK, sc.out)
}

// handleBatch coalesces the request per bank, enqueues every touched
// bank without blocking, then collects. Banks run concurrently; a full
// queue rejects only that bank's share (reported via 429 + counts).
//
//rbsglint:hotpath
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := getBatchScratch(s.cfg.Banks)
	defer putBatchScratch(sc)
	resetBatchOps(sc)
	if !s.decodeInto(w, r, &sc.body, &sc.req) {
		return
	}
	ops := sc.req.Ops
	if len(ops) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	for _, o := range ops {
		if !s.checkOp(w, o.Line, o.Data) {
			return
		}
	}

	draining := s.enqueueBatch(sc, ops)
	s.collectBatch(sc)
	resp := &sc.resp
	s.jsonLineOps.Add(uint64(resp.Applied))
	sc.out = appendBatchResponse(sc.out[:0], resp)
	switch {
	case resp.Applied == 0 && draining:
		writeErr(w, http.StatusServiceUnavailable, "server draining")
	case resp.Rejected > 0:
		//rbsglint:allow hotpathalloc -- backpressure branch only; one header slice per 429
		w.Header().Set("Retry-After", retryAfter)
		writeRaw(w, http.StatusTooManyRequests, sc.out)
	default:
		writeRaw(w, http.StatusOK, sc.out)
	}
}

// enqueueBatch and collectBatch are the transport-independent batch
// engine. enqueueBatch coalesces the already-validated ops into one run
// per touched bank (preserving request order) and enqueues every run
// without blocking; collectBatch then waits for the runs into sc.resp,
// whose Ns/Data align with the ops (rejected ops report zero). The
// JSON handler calls both back to back; the binary frame handler
// splits them across its Start and Finish, so the banks — and the
// timing signal they emit — cannot tell the protocols apart.
// enqueueBatch reports whether a drain caused any of the rejections.
//
//rbsglint:hotpath
func (s *Server) enqueueBatch(sc *batchScratch, ops []BatchOp) (draining bool) {
	for i, o := range ops {
		bank, local := s.mem.Route(o.Line)
		run := &sc.runs[bank]
		if len(run.idx) == 0 {
			run.bank = bank
			sc.order = append(sc.order, bank)
		}
		run.ops = append(run.ops, op{local: local, read: o.Read, content: pcm.Content(o.Data)})
		run.idx = append(run.idx, i)
	}

	resp := &sc.resp
	resp.Applied, resp.Rejected, resp.NsSum, resp.NsMax = 0, 0, 0, 0
	resp.Ns = resizeZeroed(resp.Ns, len(ops))
	resp.Data = resizeZeroed(resp.Data, len(ops))
	for _, b := range sc.order {
		run := &sc.runs[b]
		reply, err := s.enqueue(run.bank, run.ops)
		switch err {
		case nil:
			run.reply = reply
		case errDraining:
			draining = true
			resp.Rejected += len(run.ops)
		default:
			resp.Rejected += len(run.ops)
		}
	}
	return draining
}

// collectBatch is the second half of the batch engine (see
// enqueueBatch).
//
//rbsglint:hotpath
func (s *Server) collectBatch(sc *batchScratch) {
	resp := &sc.resp
	for _, b := range sc.order {
		run := &sc.runs[b]
		if run.reply == nil {
			continue
		}
		rb := <-run.reply
		putReply(run.reply)
		for j, res := range rb.res {
			i := run.idx[j]
			resp.Ns[i] = res.ns
			resp.Data[i] = uint8(res.content)
			resp.NsSum += res.ns
			if res.ns > resp.NsMax {
				resp.NsMax = res.ns
			}
		}
		resp.Applied += len(rb.res)
		putResBuf(rb)
	}
}

// resetBatchOps prepares sc.req.Ops for a JSON decode: length zero and
// the whole reusable backing array zeroed. json.Unmarshal writes only
// the fields present in the payload, so without the clear an op whose
// omitempty fields were omitted (e.g. {"l":42}, a RESET write) would
// inherit Read/Data from whatever request last used this pooled
// scratch. The binary path needs no such guard: decodeBatchReq writes
// every field of every op.
//
//rbsglint:hotpath
func resetBatchOps(sc *batchScratch) {
	ops := sc.req.Ops[:cap(sc.req.Ops)]
	clear(ops)
	sc.req.Ops = ops[:0]
}

// resizeZeroed returns s with length n and every element zeroed
// (rejected batch ops must report zero, not a previous request's data).
func resizeZeroed[T uint8 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bankRun is one bank's slice of a batch plus where its results land.
// Runs are embedded in the pooled batch scratch; the ops/idx backing
// arrays are reused across requests.
type bankRun struct {
	bank  int
	ops   []op
	idx   []int
	reply chan *resBuf
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
