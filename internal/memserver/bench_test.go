package memserver

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"securityrbsg/internal/stats"
)

// BenchmarkMemserverBatchWrite measures the service hot path — JSON
// decode, per-bank coalescing, actor round trip, JSON encode — with no
// sockets: requests go straight into the handler. This is the number
// every future transport or queueing change gets compared against
// (bench-smoke in CI executes it once on every push).
func BenchmarkMemserverBatchWrite(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkMemserverBatchWriteAdaptive is the same hot path with the
// adaptive security level in the loop (perf-gate guard: the bench gate
// fails if its allocs/op ever exceeds the static-scheme batch path's).
// The controller must ride the writes the scheme already does — its
// monitor feed and round-boundary checks live inside NoteWrite, and a
// level decision only redraws keys the remap round was redrawing
// anyway — so steady-state batches allocate nothing beyond what
// BenchmarkMemserverBatchWrite pays.
func BenchmarkMemserverBatchWriteAdaptive(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeAdaptive,
		Regions: 32, Interval: 100, Stages: 4, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryBatchWrite is the binary-protocol counterpart of
// BenchmarkMemserverBatchWrite: the same banks, the same 256-op batch
// shape, but frames through the frame server's start and finish (the
// reader's and the writer's halves of a connection) — the whole binary
// hot path minus socket I/O and the goroutine handoff, exactly as the
// JSON bench skips sockets by calling the handler. The bench gate holds this to ≥3× the JSON path's
// lines/s: if framing ever grows JSON-shaped overhead, the gate sees
// it.
func BenchmarkBinaryBatchWrite(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body := AppendBatchReqBody(nil, WireVersion, ops)
	var (
		dec []BatchOp
		out []byte
	)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.bin.finish(s.bin.start(body, &dec), out[:0])
		if len(out) < 4+WireHdrSize || out[4+1] != FrameBatchResp {
			b.Fatalf("frame %d: out=% x", i, out[:min(len(out), 8)])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryDecodeFrame isolates the frame server's decode: one
// 256-op frame body checked and decoded into the connection's op
// buffer, ops validated against the line space. The gate pins its
// allocs/op at zero — the decode path must stay alloc-free or the
// protocol has lost its reason to exist.
func BenchmarkBinaryDecodeFrame(b *testing.B) {
	const batch = 256
	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(8 << 14), Data: 2}
		if i%5 == 0 {
			ops[i].Read = true
			ops[i].Data = 0
		}
	}
	body := AppendBatchReqBody(nil, WireVersion, ops)
	dst := make([]BatchOp, 0, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, _, code, _ := DecodeFrame(body, dst, 8<<14)
		if code != 0 || len(decoded) != batch {
			b.Fatalf("decode: code %d, %d ops", code, len(decoded))
		}
		dst = decoded
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkMemserverSingleWrite is the uncoalesced per-request cost:
// one line per HTTP round trip through the handler.
func BenchmarkMemserverSingleWrite(b *testing.B) {
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()
	body, _ := json.Marshal(WriteRequest{Line: 12345, Data: 2})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/write", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
