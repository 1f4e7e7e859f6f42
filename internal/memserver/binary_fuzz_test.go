package memserver

import (
	"bytes"
	"testing"
)

// FuzzBinaryFrameDecode throws arbitrary frame bodies at the frame
// server's start and finish: it must never panic, never read past the body, and
// must hold the round-trip property — any BatchReq payload the strict
// decoder accepts re-encodes to the identical bytes (there is exactly
// one wire form per batch, so nothing an attacker appends, pads, or
// re-flags survives decode unnoticed).
func FuzzBinaryFrameDecode(f *testing.F) {
	// Seed corpus: the shapes the protocol defines, plus each reject
	// class the tests pin — truncated, version-skewed, wrong-typed,
	// count-mismatched, flag-corrupted, oversized-count bodies.
	valid := AppendBatchReqBody(nil, WireVersion, []BatchOp{
		{Line: 1}, {Line: 4095, Read: true}, {Line: 7, Data: 2},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                         // truncated mid-op
	f.Add([]byte{})                                                     // empty body
	f.Add([]byte{WireVersion})                                          // no type byte
	f.Add([]byte{WireVersion + 1, FrameBatchReq})                       // version skew
	f.Add([]byte{WireVersion, FrameErr})                                // wrong direction
	f.Add([]byte{WireVersion, 0xff, 1, 2, 3})                           // unknown type
	f.Add(AppendBatchReqBody(nil, WireVersion, nil))                    // zero ops
	count := []byte{WireVersion, FrameBatchReq, 0xff, 0xff, 0xff, 0xff} // 4G ops, no payload
	f.Add(count)
	flag := AppendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 9}})
	flag[len(flag)-2] = 0x80 // flags outside {0,1}
	f.Add(flag)
	validRead := appendReadReqBody(nil, WireVersion, []uint64{0, 3, 2047})
	f.Add(validRead)
	f.Add(validRead[:len(validRead)-5])                              // truncated mid-line
	f.Add(appendReadReqBody(nil, WireVersion, nil))                  // zero reads
	f.Add([]byte{WireVersion, FrameReadReq, 0xff, 0xff, 0xff, 0xff}) // 4G reads, no payload
	f.Add(appendReadReqBody(nil, WireVersion, []uint64{1 << 62}))    // line out of space

	s := MustNew(Config{
		Banks: 2, Lines: 2048, Scheme: SchemeNone,
		QueueDepth: 16, SnapshotEvery: 1,
	})
	s.Start()
	var (
		dec []BatchOp
		out []byte
	)

	f.Fuzz(func(t *testing.T, body []byte) {
		// The frame server's start+finish on the raw body: must not
		// panic and must always answer (every frame gets a response
		// frame, even the ones that cost the connection).
		out = s.bin.finish(s.bin.start(body, &dec), out[:0])
		if len(out) < 4+WireHdrSize {
			t.Fatalf("start+finish returned %d-byte frame, below prefix+header", len(out))
		}

		// Round-trip property on the strict decoders: accepted payloads
		// re-encode byte-identically.
		if len(body) >= WireHdrSize && body[0] == WireVersion && body[1] == FrameBatchReq {
			payload := body[WireHdrSize:]
			ops, code := decodeBatchReq(payload, nil, ^uint64(0))
			if code == 0 || code == WireErrBadOp { // bad content classes still decode whole
				re := AppendBatchReqBody(nil, WireVersion, ops)
				if !bytes.Equal(re[WireHdrSize:], payload) {
					t.Fatalf("accepted payload is not canonical:\n in % x\nout % x", payload, re[WireHdrSize:])
				}
			}
		}
		if len(body) >= WireHdrSize && body[0] == WireVersion && body[1] == FrameReadReq {
			payload := body[WireHdrSize:]
			ops, code := decodeReadReqOps(payload, nil, ^uint64(0))
			if code == 0 {
				lines := make([]uint64, len(ops))
				for i, o := range ops {
					if !o.Read || o.Data != 0 {
						t.Fatalf("read decode produced non-read op %+v", o)
					}
					lines[i] = o.Line
				}
				re := appendReadReqBody(nil, WireVersion, lines)
				if !bytes.Equal(re[WireHdrSize:], payload) {
					t.Fatalf("accepted read payload is not canonical:\n in % x\nout % x", payload, re[WireHdrSize:])
				}
			}
		}
	})
}
