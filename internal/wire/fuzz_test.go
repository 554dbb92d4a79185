package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/packet"
)

// codecSeeds is the codec fuzzers' seed corpus: valid datagrams of every
// type, plus hostile shapes.
func codecSeeds(f *testing.F) [][]byte {
	seeds := []Header{
		{Type: TypeData, Color: packet.Green, Flow: 1, Frame: 2, Index: 3, Seq: 4, Timestamp: 5},
		{Type: TypeData, Color: packet.Red, Feedback: packet.Feedback{RouterID: 7, Epoch: 8, Loss: 0.25, Valid: true}},
		{Type: TypeFeedback, Color: packet.ACK, Seq: 1, Feedback: packet.Feedback{RouterID: -3, Epoch: 2, Loss: -2, Valid: true}},
		{Type: TypeHello, Color: packet.ACK},
	}
	for l := 3; l < packet.MaxLayers; l++ { // the layers past the paper's three
		seeds = append(seeds, Header{Type: TypeData, Color: packet.LayerColor(l), Flow: 1, Frame: 2, Index: uint16(l), Seq: 4, Timestamp: 5})
	}
	var out [][]byte
	for _, h := range seeds {
		b, err := EncodeDatagram(h, []byte("payload"))
		if err != nil {
			f.Fatal(err)
		}
		out = append(out,
			b,
			b[:HeaderSize],   // empty payload mismatch
			b[:HeaderSize-3], // truncated header
		)
	}
	return append(out,
		[]byte{},
		bytes.Repeat([]byte{0xFF}, MaxDatagram+10), // oversized garbage
	)
}

// FuzzDecodeDatagram feeds arbitrary bytes to the decoder. The contract:
// never panic, reject with an error or decode to a header that re-encodes
// byte-identically (the canonical-form property routers rely on for
// in-place stamping).
func FuzzDecodeDatagram(f *testing.F) {
	for _, b := range codecSeeds(f) {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeDatagram(data)
		if err != nil {
			return
		}
		re, err := EncodeDatagram(h, payload)
		if err != nil {
			t.Fatalf("decoded header failed to re-encode: %+v: %v", h, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		// The checksum-free peek reads what the full decode accepted.
		if h.Type == TypeData {
			if c, frame, index, seq, ok := PeekData(data); !ok || c != h.Color || frame != h.Frame || index != h.Index || seq != h.Seq {
				t.Fatalf("PeekData = %v, %d, %d, %d, %v; decode reads %+v", c, frame, index, seq, ok, h)
			}
		}
		// Stamping a decodable datagram must never fail or panic.
		if err := StampFeedback(re, packet.Feedback{RouterID: 1, Epoch: 1, Loss: 3, Valid: true}); err != nil {
			t.Fatalf("stamp on valid datagram: %v", err)
		}
		if _, _, err := DecodeDatagram(re); err != nil {
			t.Fatalf("stamped datagram no longer decodes: %v", err)
		}
	})
}

// FuzzCorruption models in-flight damage: scramble bytes of a datagram
// exactly as the fault injector's corruption effect does and require the
// decoder to hold its contract — no panic, and anything accepted decodes
// canonically. The seed corpus is generated by the injector itself, so
// the fuzzer starts from the damage patterns the chaos experiments
// actually produce.
func FuzzCorruption(f *testing.F) {
	valid, err := EncodeDatagram(sampleHeader(), []byte("enhancement layer bits"))
	if err != nil {
		f.Fatal(err)
	}
	inj := fault.NewInjector(fault.Plan{Seed: 99, Events: []fault.Event{
		{Kind: fault.KindCorrupt, From: 0, To: time.Hour, Prob: 1},
	}})
	for n := 0; n < 32; n++ {
		d := inj.Filter(time.Duration(n)*time.Millisecond, fault.Packet{Size: len(valid)})
		c := append([]byte(nil), valid...)
		fault.Scramble(c, d.Bits)
		f.Add(c, d.Bits)
		// The canned corruption patterns must all be caught: Scramble
		// guarantees the buffer changed, and every byte is under the CRC.
		if _, _, err := DecodeDatagram(c); err == nil {
			f.Fatalf("injector corruption %d decoded cleanly", n)
		}
	}
	f.Add(valid, uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		c := append([]byte(nil), data...)
		fault.Scramble(c, bits)
		h, payload, err := DecodeDatagram(c)
		if err != nil {
			return
		}
		re, err := EncodeDatagram(h, payload)
		if err != nil {
			t.Fatalf("accepted datagram failed to re-encode: %+v: %v", h, err)
		}
		if !bytes.Equal(re, c) {
			t.Fatalf("decode/encode not canonical after scramble:\n in: %x\nout: %x", c, re)
		}
	})
}

// FuzzAppendReuse checks the buffer-reuse contract senders depend on:
// appending into a dirty, previously used buffer must produce exactly the
// bytes a fresh encode does, regardless of the junk the buffer held, the
// offset the datagram lands at, or the layer its color names.
func FuzzAppendReuse(f *testing.F) {
	yellow := uint8(packet.Yellow)
	f.Add([]byte("previous datagram residue"), []byte("payload"), uint8(3), yellow)
	f.Add([]byte{}, []byte{}, uint8(0), yellow)
	f.Add(bytes.Repeat([]byte{0xFF}, MaxDatagram), make([]byte, MaxPayload), uint8(17), yellow)
	for l := 3; l < packet.MaxLayers; l++ {
		f.Add([]byte("previous datagram residue"), []byte("payload"), uint8(l), uint8(packet.LayerColor(l)))
	}

	f.Fuzz(func(t *testing.T, junk, payload []byte, prefix, color uint8) {
		h := sampleHeader()
		h.Color = packet.Color(color)
		fresh, err := EncodeDatagram(h, payload)
		if err != nil {
			return
		}
		// Reuse 1: truncate-to-zero of a junk-filled buffer.
		buf := append(make([]byte, 0, len(junk)), junk...)
		got, err := AppendDatagram(buf[:0], h, payload)
		if err != nil {
			t.Fatalf("append into reused buffer: %v", err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatalf("reused-buffer encode differs:\nfresh: %x\nreuse: %x", fresh, got)
		}
		// Reuse 2: append behind existing bytes; the prefix must survive and
		// the tail must be the canonical encoding. (Fresh copy: reuse 1
		// already overwrote buf's backing array.)
		n := int(prefix)
		if n > len(junk) {
			n = len(junk)
		}
		buf = append(make([]byte, 0, len(junk)), junk...)
		got2, err := AppendDatagram(buf[:n], h, payload)
		if err != nil {
			t.Fatalf("append behind prefix: %v", err)
		}
		if !bytes.Equal(got2[:n], junk[:n]) {
			t.Fatal("append clobbered bytes before the write offset")
		}
		if !bytes.Equal(got2[n:], fresh) {
			t.Fatalf("offset encode differs from fresh encode")
		}
		// AppendData must zero the payload the junk occupied, both at the
		// start of the buffer and behind the prefix.
		u := unlabelled(h)
		freshData, err := EncodeDatagram(u, make([]byte, len(payload)))
		if err != nil {
			t.Fatalf("encode unlabelled header: %v", err)
		}
		for _, at := range []int{0, n} {
			buf = append(make([]byte, 0, len(junk)), junk...)
			got, err := appendDataOf(buf[:at], u, len(payload))
			if err != nil {
				t.Fatalf("AppendData at offset %d: %v", at, err)
			}
			if !bytes.Equal(got[:at], junk[:at]) {
				t.Fatal("AppendData clobbered bytes before the write offset")
			}
			if !bytes.Equal(got[at:], freshData) {
				t.Fatalf("AppendData at offset %d differs from a fresh encode:\nfresh: %x\nreuse: %x", at, freshData, got[at:])
			}
		}
	})
}

// unlabelled is h with its feedback label stripped: the header of every
// datagram AppendData writes.
func unlabelled(h Header) Header {
	h.Feedback = packet.Feedback{}
	return h
}

// appendDataOf calls AppendData with h's fields.
func appendDataOf(dst []byte, h Header, payloadLen int) ([]byte, error) {
	return AppendData(dst, h.Color, h.Flow, h.Frame, h.Index, h.Seq, h.Timestamp, payloadLen)
}

// errClass names the encode error class err belongs to, or is err itself.
func errClass(err error) error {
	for _, class := range []error{ErrColor, ErrOversized} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzHeaderRoundTrip drives the encoder with arbitrary field values:
// whatever Encode accepts must decode back to the identical header. For a
// data type, AppendData with the same fields and payload length must also
// write exactly the bytes EncodeDatagram writes for the unlabelled header
// and a zero payload of that length, or fail with the same error class.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint32(1), uint32(0), uint16(0), uint64(0), int64(0), int32(0), uint64(0), 0.0, true, []byte(nil))
	f.Add(uint8(2), uint8(6), uint32(0), uint32(9), uint16(3), uint64(1<<63), int64(-1), int32(-5), uint64(12), -2.0, true, []byte("x"))
	f.Add(uint8(3), uint8(6), uint32(7), uint32(0), uint16(0), uint64(0), int64(1), int32(0), uint64(0), 0.5, false, []byte("abc"))
	f.Add(uint8(1), uint8(4), uint32(2), uint32(3), uint16(4), uint64(5), int64(6), int32(7), uint64(8), 1e300, false, make([]byte, MaxPayload))
	f.Add(uint8(1), uint8(6), uint32(2), uint32(3), uint16(4), uint64(5), int64(6), int32(0), uint64(0), 0.0, false, []byte("ack-colored data"))
	f.Add(uint8(1), uint8(0), uint32(2), uint32(3), uint16(4), uint64(5), int64(6), int32(0), uint64(0), 0.0, false, []byte{})
	f.Add(uint8(1), uint8(3), uint32(2), uint32(3), uint16(4), uint64(5), int64(6), int32(0), uint64(0), 0.0, false, make([]byte, MaxPayload+1))
	for l := 3; l < packet.MaxLayers; l++ {
		f.Add(uint8(1), uint8(packet.LayerColor(l)), uint32(2), uint32(3), uint16(l), uint64(5), int64(6), int32(7), uint64(8), 0.5, l%2 == 0, []byte("layer"))
	}

	f.Fuzz(func(t *testing.T, typ, color uint8, flow, frame uint32, index uint16,
		seq uint64, ts int64, router int32, epoch uint64, loss float64, valid bool, payload []byte) {
		h := Header{
			Type:      Type(typ),
			Color:     packet.Color(color),
			Flow:      flow,
			Frame:     frame,
			Index:     index,
			Seq:       seq,
			Timestamp: ts,
			Feedback:  packet.Feedback{RouterID: int(router), Epoch: epoch, Loss: loss, Valid: valid},
		}
		if h.Type == TypeData {
			u := unlabelled(h)
			want, wantErr := EncodeDatagram(u, make([]byte, len(payload)))
			got, gotErr := appendDataOf(nil, u, len(payload))
			if errClass(wantErr) != errClass(gotErr) {
				t.Fatalf("AppendData(%+v, %d): error %v, EncodeDatagram: %v", u, len(payload), gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendData differs from EncodeDatagram:\n got: %x\nwant: %x", got, want)
			}
		}
		b, err := EncodeDatagram(h, payload)
		if err != nil {
			return // invalid combinations are rejected, not encoded
		}
		got, gotPayload, err := DecodeDatagram(b)
		if err != nil {
			t.Fatalf("encoded datagram failed to decode: %+v: %v", h, err)
		}
		// Compare loss by bit pattern: an invalid label may carry NaN,
		// which is != itself but must still round-trip bit-exactly.
		if math.Float64bits(got.Feedback.Loss) != math.Float64bits(h.Feedback.Loss) {
			t.Fatalf("round trip changed loss bits: in %x out %x",
				math.Float64bits(h.Feedback.Loss), math.Float64bits(got.Feedback.Loss))
		}
		got.Feedback.Loss, h.Feedback.Loss = 0, 0
		if got != h {
			t.Fatalf("round trip changed header:\n in: %+v\nout: %+v", h, got)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatal("round trip changed payload")
		}
	})
}

// refStampFeedback and refClearFeedback are StampFeedback and ClearFeedback
// as they were before each verified and re-checksummed in one CRC-32C pass
// over the datagram: a three-segment crcOf to verify and another to patch.
// FuzzStampFeedback holds the codec to them.
func refStampFeedback(b []byte, fb packet.Feedback) error {
	if err := refCheckHeader(b); err != nil {
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
		return nil
	}
	binary.BigEndian.PutUint32(b[offRouterID:], uint32(int32(merged.RouterID)))
	binary.BigEndian.PutUint64(b[offEpoch:], merged.Epoch)
	binary.BigEndian.PutUint64(b[offLoss:], math.Float64bits(merged.Loss))
	b[offFlags] |= flagFeedbackValid
	patchCRC(b)
	return nil
}

func refClearFeedback(b []byte) error {
	if err := refCheckHeader(b); err != nil {
		return err
	}
	b[offFlags] &^= flagFeedbackValid
	binary.BigEndian.PutUint32(b[offRouterID:], 0)
	binary.BigEndian.PutUint64(b[offEpoch:], 0)
	binary.BigEndian.PutUint64(b[offLoss:], 0)
	patchCRC(b)
	return nil
}

func refCheckHeader(b []byte) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if binary.BigEndian.Uint32(b[offMagic:]) != Magic {
		return ErrMagic
	}
	if b[offVersion] != VersionV1 {
		return fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	if binary.BigEndian.Uint32(b[offCRC:]) != crcOf(b) {
		return ErrChecksum
	}
	return nil
}

// FuzzStampFeedback runs StampFeedback or ClearFeedback and its reference
// copy on the same bytes: both must leave the same bytes and return the same
// error, and a refused datagram must come back byte for byte as it went in.
// mode picks the operation (bit 0: clear), whether the input is first given
// a valid checksum so the rewrite path runs (bit 1), and whether one byte,
// at mode>>3, is then flipped so a checksummed datagram arrives corrupted
// (bit 2); truncated and foreign inputs come from the codec seeds.
func FuzzStampFeedback(f *testing.F) {
	for _, b := range codecSeeds(f) {
		for mode := uint8(0); mode < 8; mode++ {
			f.Add(b, int32(2), uint64(9), 0.5, mode|offSeq<<3)
			f.Add(b, int32(2), uint64(9), 0.1, mode|offSeq<<3) // loses to a 0.25 label
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, router int32, epoch uint64, loss float64, mode uint8) {
		if mode&2 != 0 && len(data) >= HeaderSize {
			patchCRC(data)
		}
		if mode&4 != 0 && len(data) > 0 {
			data[int(mode>>3)%len(data)] ^= 0x10
		}
		fb := packet.Feedback{RouterID: int(router), Epoch: epoch, Loss: loss, Valid: true}
		got, want := bytes.Clone(data), bytes.Clone(data)
		var gotErr, wantErr error
		if mode&1 != 0 {
			gotErr, wantErr = ClearFeedback(got), refClearFeedback(want)
		} else {
			gotErr, wantErr = StampFeedback(got, fb), refStampFeedback(want, fb)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("error %v, the reference %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes differ from the reference:\n got %x\nwant %x", got, want)
		}
		if gotErr != nil && !bytes.Equal(got, data) {
			t.Fatalf("a refused datagram came back changed:\n  in %x\n out %x", data, got)
		}
	})
}
