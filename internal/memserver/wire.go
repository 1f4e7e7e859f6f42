package memserver

import (
	"encoding/binary"
	"fmt"
)

// The binary wire protocol: the hot serving path without JSON framing.
//
// Every frame is length-prefixed and little-endian:
//
//	frame := u32 bodyLen | body                    (bodyLen = len(body))
//	body  := u8 version | u8 type | payload
//
// Payloads by frame type:
//
//	BatchReq  := u32 count | count × (u64 line | u8 flags | u8 content)
//	BatchResp := u32 applied | u32 rejected | u64 nsSum | u64 nsMax |
//	             u32 count | count × (u64 ns | u8 data)
//	ReadReq   := u32 count | count × u64 line
//	ReadResp  := u32 applied | u32 rejected | u64 nsSum | u64 nsMax |
//	             u32 count | count × u8 data
//	Nack      := u32 retryAfterSecs | <payload of the response the
//	             request would have gotten: BatchResp for a BatchReq,
//	             ReadResp for a ReadReq>
//	Err       := u16 code | u16 msgLen | msg bytes
//
// ReadReq is the streaming read-mostly mode: a batch of reads whose
// response carries the data bytes and the batch-level accounting
// (applied/rejected/nsSum/nsMax) but skips the 8-byte per-op ns echo —
// 1 byte per op instead of 9 on the response body, for read-dominated
// streams that only need the data. The ops execute through the same
// per-bank engine as a full batch, so what the banks do (and the
// aggregate timing they emit) is identical; only the response encoding
// is thinner (the differential test pins data equality against the
// full-fat path).
//
// Versioning rules: the u32 length prefix and the leading version byte
// never change meaning — they are the layer a server of any version can
// parse, which is what lets a version-skewed frame be answered with a
// typed Err frame instead of a connection drop (the server skips the
// length-delimited body it cannot interpret and stays in sync).
// Everything after the version byte is owned by that version; new op
// kinds or fields mean a new version value, never a silent re-reading
// of v1 bytes. That makes Err unsupported-version the one version-skew
// signal: every version-1 server speaks every frame type defined here,
// so there is no feature probing and no client fallback to manage. A
// frame type a server does not know is a typed malformed-frame Err,
// and the connection stays up.
//
// Op records are fixed width (wireOpSize bytes), so the decoder indexes
// the request payload directly — no reflection, no per-op allocation —
// and the count is cross-checked against the payload length before any
// op is read: a frame whose count disagrees with its byte length is
// rejected whole.
//
// The timing side channel crosses this wire exactly as it crosses the
// JSON API: per-op simulated latencies travel in the response payload
// uncompressed and unaggregated, so the remap-latency signal the
// paper's RTA reads is serialization-independent (the binary attack
// regression test pins this).

const (
	// WireVersion is the protocol version this build speaks.
	WireVersion = 1

	// WireMaxBody bounds one frame body. A length prefix above this is
	// a hard reject: the server answers with an Err frame and closes
	// the connection, since it will not stream-skip an attacker-sized
	// body to stay in sync.
	WireMaxBody = 1 << 20

	// wireMaxOps bounds the ops in one batch frame (it is what
	// WireMaxBody admits, stated in ops).
	wireMaxOps = (WireMaxBody - WireHdrSize - 4) / wireOpSize

	// WireHdrSize is the body prelude: version byte + type byte.
	WireHdrSize = 2

	// wireOpSize is one fixed-width op record: u64 line, u8 flags
	// (bit 0 = read), u8 content class.
	wireOpSize = 10

	// wireResSize is one fixed-width result record: u64 ns, u8 data.
	wireResSize = 9

	// wireReadOpSize is one read-batch op record: just the u64 line.
	wireReadOpSize = 8

	// wireMaxReadOps bounds the ops in one read-batch frame.
	wireMaxReadOps = (WireMaxBody - WireHdrSize - 4) / wireReadOpSize
)

// Frame types (body[1]).
const (
	FrameBatchReq  = 0x01 // client → server: a batch of ops
	FrameBatchResp = 0x02 // server → client: per-op latencies + accounting
	FrameNack      = 0x03 // server → client: backpressure (429 + Retry-After equivalent)
	FrameErr       = 0x04 // server → client: typed error
	FrameReadReq   = 0x05 // client → server: a batch of reads (streaming read-mostly mode)
	FrameReadResp  = 0x06 // server → client: data bytes + accounting, no per-op ns echo
)

// Err frame codes. The name table keeps client-surfaced errors
// listable: an unknown code still renders, a known one names itself.
const (
	WireErrVersion   = 0x01 // frame version not spoken by this server
	WireErrMalformed = 0x02 // frame failed structural decode
	WireErrTooLarge  = 0x03 // length prefix above WireMaxBody (connection closes)
	WireErrBadOp     = 0x04 // op failed semantic validation (line range / content class)
	WireErrDraining  = 0x05 // server is draining; no more work accepted
	WireErrEmpty     = 0x06 // batch carried zero ops
)

// NackRetryAfterSecs is the Retry-After a server's own Nack frames
// carry (the JSON API's Retry-After header value).
const NackRetryAfterSecs = 1

// wireErrName maps Err codes to stable names (client error listings).
var wireErrName = map[uint16]string{
	WireErrVersion:   "unsupported-version",
	WireErrMalformed: "malformed-frame",
	WireErrTooLarge:  "frame-too-large",
	WireErrBadOp:     "bad-op",
	WireErrDraining:  "draining",
	WireErrEmpty:     "empty-batch",
}

// WireError is an Err frame surfaced by the binary client. It is a
// typed, listable error: Code names the failure class (String form in
// the message), Msg carries the server's detail line.
type WireError struct {
	Code uint16
	Msg  string
}

func (e *WireError) Error() string {
	name := wireErrName[e.Code]
	if name == "" {
		name = fmt.Sprintf("code-%d", e.Code)
	}
	known := "known codes:"
	for c := uint16(1); c <= WireErrEmpty; c++ {
		if n, ok := wireErrName[c]; ok {
			known += " " + n
		}
	}
	return fmt.Sprintf("binary wire error %s: %s (%s)", name, e.Msg, known)
}

// AppendFrame wraps a finished body with its length prefix. The body
// must already start with the version and type bytes.
func AppendFrame(b, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// AppendBatchReqBody appends the body (version|type|payload) of a batch
// request for ops. The caller frames it with AppendFrame or by
// reserving the prefix itself.
func AppendBatchReqBody(b []byte, version uint8, ops []BatchOp) []byte {
	b = append(b, version, FrameBatchReq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, o := range ops {
		b = binary.LittleEndian.AppendUint64(b, o.Line)
		var flags uint8
		if o.Read {
			flags = 1
		}
		b = append(b, flags, o.Data)
	}
	return b
}

// decodeBatchReq parses a BatchReq payload into ops (appended to
// ops[:0], capacity reused). It is the zero-copy hot decode: fixed
// offsets into payload, no reads past len(payload), and nothing
// allocated on any reject path (the returned code is the entire error).
// A structurally sound payload with an op outside the line space or
// the content classes decodes whole and reports WireErrBadOp.
//
//rbsglint:hotpath
func decodeBatchReq(payload []byte, ops []BatchOp, lines uint64) ([]BatchOp, uint16) {
	ops = ops[:0]
	if len(payload) < 4 {
		return ops, WireErrMalformed
	}
	count := binary.LittleEndian.Uint32(payload)
	if count == 0 {
		return ops, WireErrEmpty
	}
	if uint64(count) > wireMaxOps {
		return ops, WireErrMalformed
	}
	rest := payload[4:]
	if uint64(len(rest)) != uint64(count)*wireOpSize {
		return ops, WireErrMalformed
	}
	bad := false
	for off := 0; off < len(rest); off += wireOpSize {
		rec := rest[off : off+wireOpSize]
		flags := rec[8]
		if flags > 1 {
			return ops[:0], WireErrMalformed
		}
		o := BatchOp{Line: binary.LittleEndian.Uint64(rec), Read: flags == 1, Data: rec[9]}
		if o.Line >= lines || o.Data > 2 {
			bad = true
		}
		ops = append(ops, o)
	}
	if bad {
		return ops, WireErrBadOp
	}
	return ops, 0
}

// appendBatchRespPayload appends the BatchResp payload for r. Per-op
// latencies travel verbatim: this is the serialization the timing side
// channel crosses.
//
//rbsglint:hotpath
func appendBatchRespPayload(b []byte, r *BatchResponse) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Applied))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Rejected))
	b = binary.LittleEndian.AppendUint64(b, r.NsSum)
	b = binary.LittleEndian.AppendUint64(b, r.NsMax)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Ns)))
	for i, ns := range r.Ns {
		b = binary.LittleEndian.AppendUint64(b, ns)
		b = append(b, r.Data[i])
	}
	return b
}

// decodeBatchRespPayload parses a BatchResp (or the tail of a Nack)
// payload into r, reusing r's slice capacity.
func decodeBatchRespPayload(payload []byte, r *BatchResponse) uint16 {
	if len(payload) < 28 {
		return WireErrMalformed
	}
	r.Applied = int(binary.LittleEndian.Uint32(payload))
	r.Rejected = int(binary.LittleEndian.Uint32(payload[4:]))
	r.NsSum = binary.LittleEndian.Uint64(payload[8:])
	r.NsMax = binary.LittleEndian.Uint64(payload[16:])
	count := binary.LittleEndian.Uint32(payload[24:])
	rest := payload[28:]
	if uint64(len(rest)) != uint64(count)*wireResSize {
		return WireErrMalformed
	}
	r.Ns = resizeZeroed(r.Ns, int(count))
	r.Data = resizeZeroed(r.Data, int(count))
	for i := 0; i < int(count); i++ {
		rec := rest[i*wireResSize:]
		r.Ns[i] = binary.LittleEndian.Uint64(rec)
		r.Data[i] = rec[8]
	}
	return 0
}

// AppendErrFrame appends a complete Err frame, length prefix
// included. Messages are static strings chosen by code so the reject
// path composes nothing.
//
//rbsglint:hotpath
func AppendErrFrame(dst []byte, code uint16, msg string) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, WireVersion, FrameErr)
	dst = binary.LittleEndian.AppendUint16(dst, code)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return finishFrame(dst, start)
}

// AppendResponse appends the complete response frame, length prefix
// included, answering a request frame that executed: a ReadResp for a
// read frame, a BatchResp otherwise, or, when nack is set, a Nack
// carrying retryAfterSecs ahead of that same payload.
//
//rbsglint:hotpath
func AppendResponse(dst []byte, r *BatchResponse, read, nack bool, retryAfterSecs uint32) []byte {
	start := len(dst)
	typ := byte(FrameBatchResp)
	if read {
		typ = FrameReadResp
	}
	if nack {
		typ = FrameNack
	}
	dst = append(dst, 0, 0, 0, 0, WireVersion, typ)
	if nack {
		dst = binary.LittleEndian.AppendUint32(dst, retryAfterSecs)
	}
	if read {
		dst = appendReadRespPayload(dst, r)
	} else {
		dst = appendBatchRespPayload(dst, r)
	}
	return finishFrame(dst, start)
}

// finishFrame fills in the length prefix of the frame that starts at
// dst[start:].
//
//rbsglint:hotpath
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeFrame decodes and validates one request frame body into ops
// (capacity reused): the version, the frame type, the payload
// structure, and every op's line (below lines) and content class. A
// non-zero code rejects the whole frame before anything executes; msg
// is the Err frame's detail line. read reports a ReadReq frame.
//
//rbsglint:hotpath
func DecodeFrame(body []byte, ops []BatchOp, lines uint64) (_ []BatchOp, read bool, code uint16, msg string) {
	if len(body) < WireHdrSize {
		return ops[:0], false, WireErrMalformed, "frame body under header size"
	}
	if body[0] != WireVersion {
		// The frame was length-delimited, so framing is intact: a typed
		// Err answers the skew and the connection stays up.
		return ops[:0], false, WireErrVersion, "server speaks version 1"
	}
	switch body[1] {
	case FrameBatchReq:
		ops, code = decodeBatchReq(body[WireHdrSize:], ops, lines)
	case FrameReadReq:
		read = true
		ops, code = decodeReadReqOps(body[WireHdrSize:], ops, lines)
	default:
		return ops[:0], false, WireErrMalformed, "frame type not batch-req or read-req"
	}
	switch code {
	case 0:
		return ops, read, 0, ""
	case WireErrBadOp:
		return ops, read, code, "op line out of space or content class not in {0,1,2}"
	default:
		return ops, read, code, "batch payload failed decode"
	}
}

// ReadBatchResponse answers a streaming read batch (ReadReq frame):
// the batch-level accounting a BatchResponse carries, and the data
// bytes aligned with the requested lines — but no per-op latency echo,
// which is the mode's reason to exist (1 response byte per op instead
// of 9). Rejected ops report zero data.
type ReadBatchResponse struct {
	Applied  int
	Rejected int
	NsSum    uint64
	NsMax    uint64
	Data     []uint8
}

// appendReadReqBody appends the body (version|type|payload) of a
// read-batch request for lines.
func appendReadReqBody(b []byte, version uint8, lines []uint64) []byte {
	b = append(b, version, FrameReadReq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lines)))
	for _, l := range lines {
		b = binary.LittleEndian.AppendUint64(b, l)
	}
	return b
}

// decodeReadReqOps parses a ReadReq payload into read ops (appended to
// ops[:0], capacity reused) so the batch engine runs them unchanged:
// every decoded op has Read set and Data zero. A line outside the line
// space reports WireErrBadOp, as in decodeBatchReq.
//
//rbsglint:hotpath
func decodeReadReqOps(payload []byte, ops []BatchOp, lines uint64) ([]BatchOp, uint16) {
	ops = ops[:0]
	if len(payload) < 4 {
		return ops, WireErrMalformed
	}
	count := binary.LittleEndian.Uint32(payload)
	if count == 0 {
		return ops, WireErrEmpty
	}
	if uint64(count) > wireMaxReadOps {
		return ops, WireErrMalformed
	}
	rest := payload[4:]
	if uint64(len(rest)) != uint64(count)*wireReadOpSize {
		return ops, WireErrMalformed
	}
	bad := false
	for off := 0; off < len(rest); off += wireReadOpSize {
		line := binary.LittleEndian.Uint64(rest[off : off+wireReadOpSize])
		if line >= lines {
			bad = true
		}
		ops = append(ops, BatchOp{Line: line, Read: true})
	}
	if bad {
		return ops, WireErrBadOp
	}
	return ops, 0
}

// appendReadRespPayload appends the ReadResp payload for r: the
// accounting header and the data bytes, no per-op ns.
//
//rbsglint:hotpath
func appendReadRespPayload(b []byte, r *BatchResponse) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Applied))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Rejected))
	b = binary.LittleEndian.AppendUint64(b, r.NsSum)
	b = binary.LittleEndian.AppendUint64(b, r.NsMax)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Data)))
	return append(b, r.Data...)
}

// decodeReadRespPayload parses a ReadResp (or the tail of a read Nack)
// payload into r, reusing r's slice capacity.
func decodeReadRespPayload(payload []byte, r *ReadBatchResponse) uint16 {
	if len(payload) < 28 {
		return WireErrMalformed
	}
	r.Applied = int(binary.LittleEndian.Uint32(payload))
	r.Rejected = int(binary.LittleEndian.Uint32(payload[4:]))
	r.NsSum = binary.LittleEndian.Uint64(payload[8:])
	r.NsMax = binary.LittleEndian.Uint64(payload[16:])
	count := binary.LittleEndian.Uint32(payload[24:])
	rest := payload[28:]
	if uint64(len(rest)) != uint64(count) {
		return WireErrMalformed
	}
	r.Data = resizeZeroed(r.Data, int(count))
	copy(r.Data, rest)
	return 0
}

// decodeErrBody parses an Err frame payload.
func decodeErrBody(payload []byte) (*WireError, bool) {
	if len(payload) < 4 {
		return nil, false
	}
	code := binary.LittleEndian.Uint16(payload)
	n := int(binary.LittleEndian.Uint16(payload[2:]))
	if len(payload) < 4+n {
		return nil, false
	}
	return &WireError{Code: code, Msg: string(payload[4 : 4+n])}, true
}
