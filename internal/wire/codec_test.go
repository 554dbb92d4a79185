package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/packet"
)

// patchCRC re-checksums a datagram a test has rewritten in place.
func patchCRC(b []byte) { binary.BigEndian.PutUint32(b[offCRC:], crcOf(b)) }

func sampleHeader() Header {
	return Header{
		Type:      TypeData,
		Color:     packet.Yellow,
		Flow:      7,
		Frame:     1234,
		Index:     42,
		Seq:       1 << 40,
		Timestamp: 1700000000123456789,
		Feedback:  packet.Feedback{RouterID: 3, Epoch: 99, Loss: 0.0625, Valid: true},
	}
}

// TestCodecRoundTrip: every field survives encode → decode, and the
// payload comes back byte-identical.
func TestCodecRoundTrip(t *testing.T) {
	h := sampleHeader()
	payload := []byte("enhancement layer bits")
	b, err := EncodeDatagram(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderSize+len(payload) {
		t.Fatalf("encoded %d bytes, want %d", len(b), HeaderSize+len(payload))
	}
	got, gotPayload, err := DecodeDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decoded header %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

// TestCodecCanonical: a successful decode re-encodes to the exact input
// bytes — the property the fuzzer leans on and routers need for in-place
// patching.
func TestCodecCanonical(t *testing.T) {
	for _, h := range []Header{
		sampleHeader(),
		{Type: TypeFeedback, Color: packet.ACK, Seq: 9, Feedback: packet.Feedback{RouterID: -1, Epoch: 1, Loss: -2, Valid: true}},
		{Type: TypeHello, Color: packet.ACK},
		{Type: TypeData, Color: packet.BestEffort, Timestamp: -5},
	} {
		b, err := EncodeDatagram(h, []byte{1, 2, 3})
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		got, payload, err := DecodeDatagram(b)
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		re, err := EncodeDatagram(got, payload)
		if err != nil {
			t.Fatalf("%+v: re-encode: %v", h, err)
		}
		if !bytes.Equal(re, b) {
			t.Errorf("%+v: re-encode differs from original", h)
		}
	}
}

// TestDecodeRejects: malformed datagrams come back as typed errors,
// never panics or silent acceptance.
func TestDecodeRejects(t *testing.T) {
	valid, err := EncodeDatagram(sampleHeader(), []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"truncated header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrLength},
		{"trailing junk", func(b []byte) []byte { return append(b, 0) }, ErrLength},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrMagic},
		{"bad version", func(b []byte) []byte { b[offVersion] = 9; return b }, ErrVersion},
		// Field-level rejections need the checksum re-patched after the
		// mangle, or the (earlier) integrity check masks them.
		{"bad type", func(b []byte) []byte { b[offType] = 200; patchCRC(b); return b }, ErrType},
		{"bad color", func(b []byte) []byte { b[offColor] = 0; patchCRC(b); return b }, ErrColor},
		{"ack-colored data", func(b []byte) []byte { b[offColor] = byte(packet.ACK); patchCRC(b); return b }, ErrColor},
		{"tcp-colored data", func(b []byte) []byte { b[offColor] = byte(packet.TCP); patchCRC(b); return b }, ErrColor},
		{"past the last layer", func(b []byte) []byte {
			b[offColor] = byte(packet.LayerColor(packet.MaxLayers-1) + 1)
			patchCRC(b)
			return b
		}, ErrColor},
		{"reserved flags", func(b []byte) []byte { b[offFlags] |= 0x80; patchCRC(b); return b }, ErrFlags},
		{"oversized claim", func(b []byte) []byte {
			b[offPayload] = 0xFF
			b[offPayload+1] = 0xFF
			return b
		}, ErrOversized},
		// In-flight corruption of any covered byte — header field or
		// payload — must surface as the distinct checksum error before
		// sequence-space bookkeeping can run.
		{"corrupted seq", func(b []byte) []byte { b[offSeq+3] ^= 0x10; return b }, ErrChecksum},
		{"corrupted payload", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrChecksum},
		{"corrupted crc", func(b []byte) []byte { b[offCRC] ^= 0xFF; return b }, ErrChecksum},
	}
	for _, tc := range cases {
		b := append([]byte(nil), valid...)
		b = tc.mangle(b)
		if _, _, err := DecodeDatagram(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSeqSpace: every PELS layer's color is a data color with its own
// sequence space, the layer's index, and best-effort has the last; no other
// color is one.
func TestSeqSpace(t *testing.T) {
	seen := map[int]packet.Color{}
	data := []packet.Color{packet.BestEffort}
	for l := 0; l < packet.MaxLayers; l++ {
		data = append(data, packet.LayerColor(l))
	}
	for _, c := range data {
		i, ok := SeqSpace(c)
		if !ok || i < 0 || i >= SeqSpaces {
			t.Fatalf("SeqSpace(%v) = %d, %v", c, i, ok)
		}
		if l, pels := c.Layer(); pels && i != l {
			t.Errorf("SeqSpace(%v) = %d, want its layer %d", c, i, l)
		}
		if prev, dup := seen[i]; dup {
			t.Errorf("%v and %v share sequence space %d", prev, c, i)
		}
		seen[i] = c
		if spaceColor(i) != c {
			t.Errorf("spaceColor(%d) = %v, want %v", i, spaceColor(i), c)
		}
	}
	for _, c := range []packet.Color{0, packet.TCP, packet.ACK, packet.LayerColor(packet.MaxLayers-1) + 1, 255} {
		if i, ok := SeqSpace(c); ok {
			t.Errorf("SeqSpace(%v) = %d, true: not a data color", c, i)
		}
	}
}

// TestDecodeRejectsNaNLoss: a valid-flagged label must carry finite
// loss, or it would poison the MKC update r − βrp.
func TestDecodeRejectsNaNLoss(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h := sampleHeader()
		h.Feedback.Loss = bad
		if _, err := EncodeDatagram(h, nil); !errors.Is(err, ErrLoss) {
			t.Errorf("encode accepted loss %v", bad)
		}
	}
	// Garbage loss bits under an invalid label are harmless and must
	// round-trip (consumers check Valid first).
	h := sampleHeader()
	h.Feedback = packet.Feedback{Loss: math.Inf(1)}
	b, err := EncodeDatagram(h, nil)
	if err != nil {
		t.Fatalf("invalid-label inf loss rejected: %v", err)
	}
	if _, _, err := DecodeDatagram(b); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestEncodeRejectsOversized: payloads beyond MaxPayload fail fast.
func TestEncodeRejectsOversized(t *testing.T) {
	if _, err := EncodeDatagram(sampleHeader(), make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversized) {
		t.Errorf("got %v, want ErrOversized", err)
	}
	if _, err := EncodeDatagram(sampleHeader(), make([]byte, MaxPayload)); err != nil {
		t.Errorf("exactly MaxPayload rejected: %v", err)
	}
}

// BenchmarkEncode prices one data datagram through each encoder at the
// benchmark's 100-byte packet and the paper's 500-byte one: AppendDatagram
// from a Header and a payload, and AppendData from the fields a session
// sends. Diagnostic only; nothing gates on it.
func BenchmarkEncode(b *testing.B) {
	h := unlabelled(sampleHeader())
	for _, size := range []int{100, 500} {
		payload := make([]byte, size-HeaderSize)
		buf := make([]byte, 0, MaxDatagram)
		b.Run(fmt.Sprintf("AppendDatagram/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				h.Seq = uint64(i)
				buf, _ = AppendDatagram(buf[:0], h, payload)
			}
		})
		b.Run(fmt.Sprintf("AppendData/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				buf, _ = AppendData(buf[:0], h.Color, h.Flow, h.Frame, h.Index, uint64(i), h.Timestamp, size-HeaderSize)
			}
		})
	}
}

// TestPeekColor matches the full decode on valid data and refuses
// non-data datagrams.
func TestPeekColor(t *testing.T) {
	b, _ := EncodeDatagram(sampleHeader(), nil)
	if c, ok := PeekColor(b); !ok || c != packet.Yellow {
		t.Errorf("PeekColor = %v,%v, want yellow,true", c, ok)
	}
	fb, _ := EncodeDatagram(Header{Type: TypeFeedback, Color: packet.ACK}, nil)
	if _, ok := PeekColor(fb); ok {
		t.Error("PeekColor accepted a feedback datagram")
	}
	if _, ok := PeekColor(b[:10]); ok {
		t.Error("PeekColor accepted a truncated datagram")
	}
}

// TestPeekData: on every data color — each PELS layer's and best-effort —
// PeekData reads the color, frame and index the full decode does, and it
// refuses exactly what PeekColor refuses: every other color byte, other
// datagram types, a truncated header, and a bad magic or version.
func TestPeekData(t *testing.T) {
	data := []packet.Color{packet.BestEffort}
	for l := 0; l < packet.MaxLayers; l++ {
		data = append(data, packet.LayerColor(l))
	}
	for i, c := range data {
		b, err := AppendData(nil, c, 7, uint32(1000+i)<<16, uint16(60000+i), 5, 1, 440)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := DecodeDatagram(b)
		if err != nil {
			t.Fatal(err)
		}
		color, frame, index, ok := PeekData(b)
		if !ok || color != h.Color || frame != h.Frame || index != h.Index {
			t.Errorf("PeekData(%v) = %v, %d, %d, %v; decode reads %v, %d, %d",
				c, color, frame, index, ok, h.Color, h.Frame, h.Index)
		}
	}

	valid, err := AppendData(nil, packet.Green, 7, 1, 2, 3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	var refused [][]byte
	for c := 0; c < 256; c++ {
		if _, ok := SeqSpace(packet.Color(c)); !ok {
			b := bytes.Clone(valid)
			b[offColor] = byte(c)
			refused = append(refused, b)
		}
	}
	for _, typ := range []Type{TypeFeedback, TypeHello, TypeReject, TypeClose, 0, 200} {
		b := bytes.Clone(valid)
		b[offType] = byte(typ)
		refused = append(refused, b)
	}
	badMagic, badVersion := bytes.Clone(valid), bytes.Clone(valid)
	badMagic[offMagic] ^= 0xFF
	badVersion[offVersion] = 9
	refused = append(refused, nil, valid[:HeaderSize-1], badMagic, badVersion)
	for _, b := range refused {
		_, colorOK := PeekColor(b)
		if _, _, _, ok := PeekData(b); ok || colorOK {
			t.Errorf("PeekData ok=%v, PeekColor ok=%v on %x, want both false", ok, colorOK, b)
		}
	}
}

// TestStampFeedback: stamping follows the max-loss override of eq. 8 and
// patches in place without disturbing other fields.
func TestStampFeedback(t *testing.T) {
	h := sampleHeader()
	h.Feedback = packet.Feedback{}
	b, _ := EncodeDatagram(h, []byte("p"))

	// First stamp always lands (no label yet).
	if err := StampFeedback(b, packet.Feedback{RouterID: 1, Epoch: 5, Loss: 0.1, Valid: true}); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	want := packet.Feedback{RouterID: 1, Epoch: 5, Loss: 0.1, Valid: true}
	if got.Feedback != want {
		t.Fatalf("after first stamp: %+v", got.Feedback)
	}
	if got.Seq != h.Seq || got.Frame != h.Frame || got.Color != h.Color {
		t.Fatalf("stamping disturbed other fields: %+v", got)
	}

	// A smaller loss from another router does not override.
	_ = StampFeedback(b, packet.Feedback{RouterID: 2, Epoch: 9, Loss: 0.05, Valid: true})
	got, _, _ = DecodeDatagram(b)
	if got.Feedback != want {
		t.Errorf("smaller loss overrode: %+v", got.Feedback)
	}

	// A larger loss does; so does the same router refreshing its epoch.
	_ = StampFeedback(b, packet.Feedback{RouterID: 2, Epoch: 9, Loss: 0.5, Valid: true})
	got, _, _ = DecodeDatagram(b)
	if got.Feedback.RouterID != 2 || got.Feedback.Loss != 0.5 {
		t.Errorf("larger loss did not override: %+v", got.Feedback)
	}
	_ = StampFeedback(b, packet.Feedback{RouterID: 2, Epoch: 10, Loss: 0.2, Valid: true})
	got, _, _ = DecodeDatagram(b)
	if got.Feedback.Epoch != 10 || got.Feedback.Loss != 0.2 {
		t.Errorf("own-router refresh did not land: %+v", got.Feedback)
	}

	if err := StampFeedback(b[:8], packet.Feedback{Valid: true}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated stamp: %v", err)
	}

	// A corrupted datagram must not be stamped: recomputing the checksum
	// over garbled bytes would launder the corruption.
	b[offSeq] ^= 0x40
	if err := StampFeedback(b, packet.Feedback{RouterID: 3, Epoch: 11, Loss: 0.9, Valid: true}); !errors.Is(err, ErrChecksum) {
		t.Errorf("stamp on corrupted datagram: got %v, want ErrChecksum", err)
	}
}

// TestClearFeedback: stripping the label models feedback starvation and
// leaves a decodable datagram with Valid=false.
func TestClearFeedback(t *testing.T) {
	b, err := EncodeDatagram(sampleHeader(), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ClearFeedback(b); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDatagram(b)
	if err != nil {
		t.Fatalf("decode after clear: %v", err)
	}
	if got.Feedback != (packet.Feedback{}) {
		t.Errorf("feedback after clear: %+v, want zero", got.Feedback)
	}
	want := sampleHeader()
	if got.Seq != want.Seq || got.Color != want.Color || got.Frame != want.Frame {
		t.Errorf("clear disturbed other fields: %+v", got)
	}
	// Corrupted input is refused, truncated input too.
	b[offColor] ^= 0x07
	if err := ClearFeedback(b); !errors.Is(err, ErrChecksum) {
		t.Errorf("clear on corrupted datagram: got %v, want ErrChecksum", err)
	}
	if err := ClearFeedback(b[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("clear on truncated datagram: got %v, want ErrTruncated", err)
	}
}

// TestPeekType classifies without full decode.
func TestPeekType(t *testing.T) {
	d, _ := EncodeDatagram(sampleHeader(), nil)
	if ty, ok := PeekType(d); !ok || ty != TypeData {
		t.Errorf("PeekType(data) = %v,%v", ty, ok)
	}
	f, _ := EncodeDatagram(Header{Type: TypeFeedback, Color: packet.ACK}, nil)
	if ty, ok := PeekType(f); !ok || ty != TypeFeedback {
		t.Errorf("PeekType(feedback) = %v,%v", ty, ok)
	}
	if _, ok := PeekType(d[:HeaderSize-1]); ok {
		t.Error("PeekType accepted a truncated datagram")
	}
}
