package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/packet"
)

// Type distinguishes the datagram kinds of the PELS wire protocol.
type Type uint8

const (
	// TypeData carries video payload colored green, yellow, or red.
	TypeData Type = 1
	// TypeFeedback echoes a router feedback label from receiver to
	// sender (the reverse path the simulator models with ACK packets).
	TypeFeedback Type = 2
	// TypeHello subscribes a receiver to a stream; cmd/pelsd starts a
	// session when one arrives.
	TypeHello Type = 3
	// TypeReject tells a receiver its hello was not admitted. The Index
	// field carries a Reason code and the Frame field a retry-after hint
	// in milliseconds (see ControlHeader) — reusing existing header
	// fields keeps the 60-byte layout, the zero-alloc codec, and the CRC
	// coverage unchanged.
	TypeReject Type = 4
	// TypeClose tells a receiver its session ended (drained, reaped
	// idle/stuck, or completed). Same field reuse as TypeReject.
	TypeClose Type = 5
)

// String returns the lower-case type name.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeFeedback:
		return "feedback"
	case TypeHello:
		return "hello"
	case TypeReject:
		return "reject"
	case TypeClose:
		return "close"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Wire format constants. All integers are big-endian.
const (
	// Magic is the four-byte datagram prefix "PELS".
	Magic uint32 = 0x50454C53
	// VersionV1 is the only wire version this codec speaks.
	VersionV1 = 1
	// HeaderSize is the fixed encoded header length in bytes.
	HeaderSize = 60
	// MaxPayload bounds the payload so a datagram fits a conservative
	// 1500-byte MTU with headroom for UDP/IP headers.
	MaxPayload = 1400
	// MaxDatagram is the largest valid encoded datagram.
	MaxDatagram = HeaderSize + MaxPayload
)

// Header byte offsets. StampFeedback and ClearFeedback patch the label
// through them in place, without re-encoding the whole datagram.
const (
	offMagic     = 0  // uint32
	offVersion   = 4  // uint8
	offType      = 5  // uint8
	offColor     = 6  // uint8
	offFlags     = 7  // uint8
	offFlow      = 8  // uint32
	offFrame     = 12 // uint32
	offIndex     = 16 // uint16
	offPayload   = 18 // uint16
	offSeq       = 20 // uint64
	offTimestamp = 28 // int64, unix nanoseconds
	offRouterID  = 36 // int32
	offEpoch     = 40 // uint64
	offLoss      = 48 // float64 bits
	offCRC       = 56 // uint32, CRC-32C over the datagram with this field zeroed
)

// flagFeedbackValid marks that the feedback label fields carry a real
// router stamp. All other flag bits must be zero in v1.
const flagFeedbackValid = 0x01

// Decode errors. DecodeDatagram wraps each with positional detail; use
// errors.Is to classify.
var (
	ErrTruncated = errors.New("wire: datagram shorter than header")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrType      = errors.New("wire: unknown datagram type")
	ErrColor     = errors.New("wire: invalid color")
	ErrFlags     = errors.New("wire: reserved flag bits set")
	ErrOversized = errors.New("wire: payload exceeds MaxPayload")
	ErrLength    = errors.New("wire: datagram length disagrees with header")
	ErrLoss      = errors.New("wire: non-finite loss in feedback label")
	ErrChecksum  = errors.New("wire: checksum mismatch")
)

// crcTable is the Castagnoli polynomial, chosen for its hardware support
// and strictly better burst-error detection than IEEE CRC-32.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcOf computes the datagram checksum: CRC-32C over the entire datagram
// with the checksum field itself taken as zero. Covering the payload too
// means a corrupted datagram can never reach per-color sequence
// accounting — corruption becomes loss, which the control loops already
// handle.
//
//pelsvet:noalloc
func crcOf(b []byte) uint32 {
	sum := crc32.Update(0, crcTable, b[:offCRC])
	sum = crc32.Update(sum, crcTable, crcZero[:])
	return crc32.Update(sum, crcTable, b[offCRC+4:])
}

// crcZero stands in for the zeroed checksum field during verification; it
// lives at package scope because escape analysis cannot see through the
// hardware-accelerated crc32.Update and would heap-allocate a local.
var crcZero [4]byte

// openHeader readies an encoded datagram for a rewrite of its header in
// place. It checks the fixed prefix, zeroes the checksum field and verifies
// the checksum in one CRC-32C pass over b as it now lies — the field taken as
// zero is exactly what crcOf's three segments stand in for. It returns the
// stored checksum, to be put back if b is left unchanged; on an error b is as
// it was. Every in-place mutation (StampFeedback, ClearFeedback) opens with
// it and ends with sealCRC or by putting the checksum back.
//
//pelsvet:noalloc
func openHeader(b []byte) (sum uint32, err error) {
	if len(b) < HeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if binary.BigEndian.Uint32(b[offMagic:]) != Magic {
		return 0, ErrMagic
	}
	if b[offVersion] != VersionV1 {
		return 0, fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	sum = binary.BigEndian.Uint32(b[offCRC:])
	binary.BigEndian.PutUint32(b[offCRC:], 0)
	// Refuse a datagram that is already damaged: re-checksumming corrupted
	// bytes would launder the corruption back into a "valid" datagram.
	if crc32.Update(0, crcTable, b) != sum {
		binary.BigEndian.PutUint32(b[offCRC:], sum)
		return 0, ErrChecksum
	}
	return sum, nil
}

// sealCRC checksums a datagram whose checksum field is zero (one openHeader
// opened, or one just written) in one pass.
//
//pelsvet:noalloc
func sealCRC(b []byte) {
	binary.BigEndian.PutUint32(b[offCRC:], crc32.Update(0, crcTable, b))
}

// SeqSpaces is how many colors a data datagram can carry: the color of
// each PELS priority layer (packet.LayerColor) and best-effort. Each has a
// sequence space of its own, at the sender and at the receiver.
const SeqSpaces = packet.MaxLayers + 1

// SeqSpace returns the index in [0, SeqSpaces) of a data color's sequence
// space — a PELS color's layer, SeqSpaces−1 for best-effort — and false for
// any other color. It is the wire's one data-color rule.
//
//pelsvet:noalloc
func SeqSpace(c packet.Color) (int, bool) {
	if l, ok := c.Layer(); ok {
		return l, true
	}
	if c == packet.BestEffort {
		return SeqSpaces - 1, true
	}
	return 0, false
}

// spaceColor is the color whose sequence space is i, SeqSpace's inverse.
func spaceColor(i int) packet.Color {
	if i == SeqSpaces-1 {
		return packet.BestEffort
	}
	return packet.LayerColor(i)
}

// Header is the decoded PELS wire header. Seq is a per-color sequence
// number for data datagrams (the receiver derives per-color loss from its
// gaps) and a monotonic counter for feedback datagrams. Timestamp is the
// sender's clock in unix nanoseconds at the instant the datagram was handed
// to the socket (or to the shaping link in front of it): a data datagram is
// stamped after any pacing wait (session.Session encodes it at the write),
// so a receiver's now − Timestamp is link queue plus transport.
type Header struct {
	Type      Type
	Color     packet.Color
	Flow      uint32
	Frame     uint32
	Index     uint16
	Seq       uint64
	Timestamp int64
	Feedback  packet.Feedback
}

// validate checks the fields that have restricted domains on the wire.
func (h Header) validate() error {
	switch h.Type {
	case TypeData:
		if _, ok := SeqSpace(h.Color); !ok {
			return fmt.Errorf("%w: data datagram colored %v", ErrColor, h.Color)
		}
	case TypeFeedback, TypeHello, TypeReject, TypeClose:
		if h.Color != packet.ACK {
			return fmt.Errorf("%w: %v datagram colored %v (want ack)", ErrColor, h.Type, h.Color)
		}
	default:
		return fmt.Errorf("%w: %d", ErrType, uint8(h.Type))
	}
	if h.Feedback.Valid && (math.IsNaN(h.Feedback.Loss) || math.IsInf(h.Feedback.Loss, 0)) {
		return fmt.Errorf("%w: %v", ErrLoss, h.Feedback.Loss)
	}
	if h.Feedback.RouterID != int(int32(h.Feedback.RouterID)) {
		return fmt.Errorf("wire: router id %d overflows int32", h.Feedback.RouterID)
	}
	return nil
}

// AppendDatagram encodes h and payload onto dst and returns the extended
// slice. It fails on invalid headers or payloads longer than MaxPayload.
//
//pelsvet:noalloc
func AppendDatagram(dst []byte, h Header, payload []byte) ([]byte, error) {
	if err := h.validate(); err != nil {
		return dst, err
	}
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversized, len(payload))
	}
	start, n := len(dst), HeaderSize+len(payload)
	dst = slices.Grow(dst, n)[:start+n]
	b := dst[start:]
	copy(b[HeaderSize:], payload)
	putHeader(b, h.Type, h.Color, h.Flow, h.Frame, h.Index, h.Seq, h.Timestamp)
	if h.Feedback.Valid {
		b[offFlags] = flagFeedbackValid
	}
	binary.BigEndian.PutUint32(b[offRouterID:], uint32(int32(h.Feedback.RouterID)))
	binary.BigEndian.PutUint64(b[offEpoch:], h.Feedback.Epoch)
	binary.BigEndian.PutUint64(b[offLoss:], math.Float64bits(h.Feedback.Loss))
	sealCRC(b)
	return dst, nil
}

// AppendData encodes an unlabelled data datagram with payloadLen zero bytes
// of payload onto dst and returns the extended slice: the bytes
// AppendDatagram writes for Header{Type: TypeData, Color: color, Flow: flow,
// Frame: frame, Index: index, Seq: seq, Timestamp: ts} and as many zeros,
// without building the Header. It is the sender's per-datagram encode. Like
// AppendDatagram it fails with ErrColor unless color is a data color
// (SeqSpace), and with ErrOversized unless payloadLen is in [0, MaxPayload].
//
//pelsvet:noalloc
func AppendData(dst []byte, color packet.Color, flow, frame uint32, index uint16, seq uint64, ts int64, payloadLen int) ([]byte, error) {
	if _, ok := SeqSpace(color); !ok {
		return dst, fmt.Errorf("%w: data datagram colored %v", ErrColor, color)
	}
	if payloadLen < 0 || payloadLen > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversized, payloadLen)
	}
	start, n := len(dst), HeaderSize+payloadLen
	dst = slices.Grow(dst, n)[:start+n]
	b := dst[start:]
	putHeader(b, TypeData, color, flow, frame, index, seq, ts)
	clear(b[HeaderSize:])
	sealCRC(b)
	return dst, nil
}

// putHeader writes the whole v1 header of an unlabelled datagram into
// b[:HeaderSize], with label and checksum fields zero; the payload length
// is len(b) − HeaderSize. It is the one place the layout is written:
// AppendDatagram adds the label on top, and both seal the checksum after.
//
//pelsvet:noalloc
func putHeader(b []byte, typ Type, color packet.Color, flow, frame uint32, index uint16, seq uint64, ts int64) {
	_ = b[HeaderSize-1]
	binary.BigEndian.PutUint32(b[offMagic:], Magic)
	b[offVersion] = VersionV1
	b[offType] = uint8(typ)
	b[offColor] = uint8(color)
	b[offFlags] = 0
	binary.BigEndian.PutUint32(b[offFlow:], flow)
	binary.BigEndian.PutUint32(b[offFrame:], frame)
	binary.BigEndian.PutUint16(b[offIndex:], index)
	binary.BigEndian.PutUint16(b[offPayload:], uint16(len(b)-HeaderSize))
	binary.BigEndian.PutUint64(b[offSeq:], seq)
	binary.BigEndian.PutUint64(b[offTimestamp:], uint64(ts))
	binary.BigEndian.PutUint32(b[offRouterID:], 0)
	binary.BigEndian.PutUint64(b[offEpoch:], 0)
	binary.BigEndian.PutUint64(b[offLoss:], 0)
	binary.BigEndian.PutUint32(b[offCRC:], 0)
}

// EncodeDatagram is AppendDatagram into a fresh buffer.
func EncodeDatagram(h Header, payload []byte) ([]byte, error) {
	return AppendDatagram(make([]byte, 0, HeaderSize+len(payload)), h, payload)
}

// DecodeDatagram parses one datagram. The returned payload aliases b.
// Truncated, oversized, or otherwise malformed input yields an error —
// never a panic — and a successful decode re-encodes byte-identically.
//
//pelsvet:noalloc
func DecodeDatagram(b []byte) (Header, []byte, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if got := binary.BigEndian.Uint32(b[offMagic:]); got != Magic {
		return h, nil, fmt.Errorf("%w: %#08x", ErrMagic, got)
	}
	if b[offVersion] != VersionV1 {
		return h, nil, fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	plen := int(binary.BigEndian.Uint16(b[offPayload:]))
	if plen > MaxPayload {
		return Header{}, nil, fmt.Errorf("%w: header claims %d bytes", ErrOversized, plen)
	}
	if len(b) != HeaderSize+plen {
		return Header{}, nil, fmt.Errorf("%w: header claims %d payload bytes, datagram has %d",
			ErrLength, plen, len(b)-HeaderSize)
	}
	// Checksum before any field is interpreted: a corrupted datagram must
	// be indistinguishable from a lost one, or garbled sequence numbers
	// would poison the receiver's per-color loss accounting.
	if got, want := binary.BigEndian.Uint32(b[offCRC:]), crcOf(b); got != want {
		return Header{}, nil, fmt.Errorf("%w: got %#08x, computed %#08x", ErrChecksum, got, want)
	}
	if b[offFlags]&^flagFeedbackValid != 0 {
		return h, nil, fmt.Errorf("%w: %#02x", ErrFlags, b[offFlags])
	}
	h.Type = Type(b[offType])
	h.Color = packet.Color(b[offColor])
	h.Flow = binary.BigEndian.Uint32(b[offFlow:])
	h.Frame = binary.BigEndian.Uint32(b[offFrame:])
	h.Index = binary.BigEndian.Uint16(b[offIndex:])
	h.Seq = binary.BigEndian.Uint64(b[offSeq:])
	h.Timestamp = int64(binary.BigEndian.Uint64(b[offTimestamp:]))
	h.Feedback = packet.Feedback{
		RouterID: int(int32(binary.BigEndian.Uint32(b[offRouterID:]))),
		Epoch:    binary.BigEndian.Uint64(b[offEpoch:]),
		Loss:     math.Float64frombits(binary.BigEndian.Uint64(b[offLoss:])),
		Valid:    b[offFlags]&flagFeedbackValid != 0,
	}
	if err := h.validate(); err != nil {
		return Header{}, nil, err
	}
	return h, b[HeaderSize:], nil
}

// PeekType returns the type of an encoded datagram without a full decode.
// The second return is false when b is too short or not a v1 PELS
// datagram. Like PeekColor it does not verify the checksum — it exists
// for cheap classification on the forwarding path, where a corrupted
// datagram is caught by the endpoint's full decode.
func PeekType(b []byte) (Type, bool) {
	if len(b) < HeaderSize ||
		binary.BigEndian.Uint32(b[offMagic:]) != Magic ||
		b[offVersion] != VersionV1 {
		return 0, false
	}
	return Type(b[offType]), true
}

// PeekColor returns the color of an encoded datagram without a full
// decode, for priority classification on the forwarding path. The second
// return is false when b is not a well-formed v1 data datagram.
func PeekColor(b []byte) (packet.Color, bool) {
	if len(b) < HeaderSize ||
		binary.BigEndian.Uint32(b[offMagic:]) != Magic ||
		b[offVersion] != VersionV1 ||
		Type(b[offType]) != TypeData {
		return 0, false
	}
	c := packet.Color(b[offColor])
	if _, ok := SeqSpace(c); !ok {
		return 0, false
	}
	return c, true
}

// PeekData returns the color, frame, index and sequence number of an
// encoded data datagram without a full decode. Like PeekColor it does not
// verify the checksum: it is the simulator's in-process hand-off
// (pels.Source), which reads the datagram its own session sealed in the
// same call. ok is false wherever PeekColor's is.
func PeekData(b []byte) (color packet.Color, frame uint32, index uint16, seq uint64, ok bool) {
	if color, ok = PeekColor(b); !ok {
		return 0, 0, 0, 0, false
	}
	return color, binary.BigEndian.Uint32(b[offFrame:]), binary.BigEndian.Uint16(b[offIndex:]), binary.BigEndian.Uint64(b[offSeq:]), true
}

// StampFeedback merges fb into the feedback label of an encoded datagram
// in place, using the max-loss override of packet.Feedback.Merge (paper
// eq. 8): the stamp wins when the datagram has no label, carries this
// router's own label, or records a smaller loss. It is the live
// counterpart of aqm.Feedback.Process and avoids decode/re-encode
// allocations on the forwarding path. A datagram it refuses (truncated,
// foreign, or failing its checksum) is left byte for byte as it was.
//
//pelsvet:noalloc
func StampFeedback(b []byte, fb packet.Feedback) error {
	sum, err := openHeader(b)
	if err != nil {
		return err
	}
	cur := packet.Feedback{
		RouterID: int(int32(binary.BigEndian.Uint32(b[offRouterID:]))),
		Epoch:    binary.BigEndian.Uint64(b[offEpoch:]),
		Loss:     math.Float64frombits(binary.BigEndian.Uint64(b[offLoss:])),
		Valid:    b[offFlags]&flagFeedbackValid != 0,
	}
	merged := cur.Merge(fb.RouterID, fb.Epoch, fb.Loss)
	if merged == cur {
		binary.BigEndian.PutUint32(b[offCRC:], sum)
		return nil
	}
	binary.BigEndian.PutUint32(b[offRouterID:], uint32(int32(merged.RouterID)))
	binary.BigEndian.PutUint64(b[offEpoch:], merged.Epoch)
	binary.BigEndian.PutUint64(b[offLoss:], math.Float64bits(merged.Loss))
	b[offFlags] |= flagFeedbackValid
	sealCRC(b)
	return nil
}

// ClearFeedback strips the feedback label of an encoded datagram in
// place (Valid=false, fields zeroed) and repairs the checksum. Fault
// injectors use it to model a router whose feedback path is starved:
// data keeps flowing but carries no stamp. Like StampFeedback it leaves a
// datagram it refuses as it was.
//
//pelsvet:noalloc
func ClearFeedback(b []byte) error {
	if _, err := openHeader(b); err != nil {
		return err
	}
	b[offFlags] &^= flagFeedbackValid
	binary.BigEndian.PutUint32(b[offRouterID:], 0)
	binary.BigEndian.PutUint64(b[offEpoch:], 0)
	binary.BigEndian.PutUint64(b[offLoss:], 0)
	sealCRC(b)
	return nil
}
