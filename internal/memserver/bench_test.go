package memserver

import (
	"testing"

	"securityrbsg/internal/stats"
)

// BenchmarkBinaryBatchWrite measures the service hot path: 256-op
// write frames through the frame server's start and finish (the
// reader's and the writer's halves of a connection) — decode, per-bank
// coalescing, the actor round trips, encode — minus socket I/O and the
// goroutine handoff. The bench gate pins its allocs/op at zero
// (TestBinaryAcceptPathZeroAlloc pins the same on the adaptive
// scheme).
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
