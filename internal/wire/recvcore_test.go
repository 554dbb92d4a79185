package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestReceiverCoreLabelRule pins which in-band labels the live receiver
// echoes: a newer epoch from the same router, never an older or equal one,
// and a different router's label at once even when it reports less loss —
// the gateway-swap case, where the old router is gone. pels.Sink's max-min
// rule (paper §5.2, eq. 8) would keep the dead router's label there until
// stale decay; that difference between the stacks is ROADMAP.md item 3's
// open question.
func TestReceiverCoreLabelRule(t *testing.T) {
	c := newRecvCore(&helloPolicy{retry: time.Second, max: time.Second}, 7, 1, time.Time{})
	now := time.Unix(2000, 0)
	var seq, lastEcho uint64
	for i, step := range []struct {
		router int
		epoch  uint64
		loss   float64
		echo   bool
	}{
		{1, 5, 0.20, true},  // the first label
		{1, 6, 0.20, true},  // a newer epoch
		{1, 6, 0.20, false}, // the same epoch again
		{1, 4, 0.90, false}, // an older epoch, however lossy
		{2, 1, 0.05, true},  // another router, less loss: the gateway swap
		{2, 1, 0.05, false},
		{2, 2, 0.01, true},
		{1, 9, 0.50, true}, // back to the first router
	} {
		fb := packet.Feedback{RouterID: step.router, Epoch: step.epoch, Loss: step.loss, Valid: true}
		h := Header{Type: TypeData, Color: packet.Green, Flow: 7, Seq: seq, Feedback: fb}
		seq++
		echo, ok := c.onData(h, HeaderSize, now)
		if ok != step.echo {
			t.Fatalf("step %d (router %d epoch %d loss %v): echoed %v, want %v", i, step.router, step.epoch, step.loss, ok, step.echo)
		}
		if !ok {
			continue
		}
		if echo.Type != TypeFeedback || echo.Flow != 7 || echo.Feedback != fb || echo.Seq != lastEcho+1 {
			t.Fatalf("step %d: echo %+v, want feedback for flow 7 with label %+v and Seq %d", i, echo, fb, lastEcho+1)
		}
		lastEcho = echo.Seq
		if c.st.LastFeedback != fb {
			t.Fatalf("step %d: last label %+v, want %+v", i, c.st.LastFeedback, fb)
		}
	}
}

// TestReceiverCoreRules pins the rest of what Receiver and Swarm share: loss
// from sequence gaps with the late-arrival repay, and the control rule — a
// retryable Reject floors the next hello at retry-after (plus at most a
// quarter of jitter) and never ends the receiver, a non-retryable one does,
// Reconnect governs Close only, hellos carry sequence 0, and the echo
// numbering survives a reset.
func TestReceiverCoreRules(t *testing.T) {
	const retry = 100 * time.Millisecond
	now := time.Unix(2000, 0)
	data := func(c *recvCore, seq uint64, fb packet.Feedback) (Header, bool) {
		return c.onData(Header{Type: TypeData, Color: packet.Red, Flow: 7, Seq: seq, Feedback: fb}, HeaderSize, now)
	}
	control := func(c *recvCore, typ Type, reason Reason, ra time.Duration) {
		c.onControl(ControlHeader(typ, 7, reason, ra, 0), now)
	}
	helloIn := func(c *recvCore, d time.Duration) bool {
		return !c.nextHello.Before(now.Add(d)) && !c.nextHello.After(now.Add(d+d/4))
	}
	label := packet.Feedback{RouterID: 1, Epoch: 1, Valid: true}

	t.Run("accounting", func(t *testing.T) {
		c := newRecvCore(&helloPolicy{retry: retry, max: retry}, 7, 1, now)
		for _, seq := range []uint64{0, 3, 1, 4, 2, 2} { // 1 and 2 late, then 2 twice
			data(&c, seq, packet.Feedback{})
		}
		red := c.snapshot().Colors[packet.Red]
		if red.Received != 6 || red.Lost != 0 || c.st.SeqRegressions != 1 {
			t.Fatalf("red %+v with %d regressions, want 6 received, both gaps repaid, 1 regression", red, c.st.SeqRegressions)
		}
	})

	t.Run("reject", func(t *testing.T) {
		c := newRecvCore(&helloPolicy{retry: retry, max: 8 * retry}, 7, 1, now)
		if h, ok := c.hello(now); !ok || h.Type != TypeHello || h.Seq != 0 {
			t.Fatalf("first hello %+v (sent %v), want a hello with Seq 0", h, ok)
		}
		control(&c, TypeReject, ReasonServerFull, time.Second)
		if c.done || !helloIn(&c, time.Second) {
			t.Fatalf("retryable reject: done=%v, next hello %v after it, want %v plus jitter", c.done, c.nextHello.Sub(now), time.Second)
		}
		control(&c, TypeReject, ReasonBadConfig, 0)
		var rej *RejectError
		if !c.done || !errors.As(c.err, &rej) || rej.Reason != ReasonBadConfig {
			t.Fatalf("bad-config reject: done=%v err=%v, want a RejectError", c.done, c.err)
		}
	})

	t.Run("close", func(t *testing.T) {
		c := newRecvCore(&helloPolicy{retry: retry, max: 8 * retry}, 7, 1, now)
		control(&c, TypeClose, ReasonIdle, 0)
		if !c.done || c.err != nil {
			t.Fatalf("close without reconnect: done=%v err=%v, want a clean end", c.done, c.err)
		}

		c = newRecvCore(&helloPolicy{retry: retry, max: 8 * retry, reconnect: true}, 7, 1, now)
		if _, ok := data(&c, 0, label); !ok {
			t.Fatal("first label not echoed")
		}
		control(&c, TypeClose, ReasonIdle, 0)
		if c.done || c.st.Reconnects != 1 || !helloIn(&c, retry) {
			t.Fatalf("close: done=%v reconnects=%d, next hello %v after it, want a reset and %v plus jitter",
				c.done, c.st.Reconnects, c.nextHello.Sub(now), retry)
		}
		if echo, ok := data(&c, 0, label); !ok || echo.Seq != 2 {
			t.Fatalf("echo after the reset %+v (sent %v), want Seq 2", echo, ok)
		}
		control(&c, TypeClose, ReasonIdle, time.Second)
		if !helloIn(&c, time.Second) {
			t.Fatalf("close with retry-after 1s: next hello %v after it", c.nextHello.Sub(now))
		}
		control(&c, TypeClose, ReasonComplete, 0)
		if !c.done || c.err != nil {
			t.Fatalf("close(complete): done=%v err=%v, want a clean end", c.done, c.err)
		}
	})
}

// FuzzReceiverHandle throws arbitrary datagrams at a Receiver: raw bytes
// as they come, or the same bytes re-addressed with the fuzzer's type,
// color and flow under a good checksum so they get past the decoder. The
// receiver starts in each state it can be in — helloing, rejected and
// backing off, streaming, closed. The contract: no panic and no index out
// of range, a datagram for another flow changes nothing, and one that does
// not decode moves only DecodeErrors.
func FuzzReceiverHandle(f *testing.F) {
	const (
		modeRaw = 1 << iota // deliver the bytes untouched
		// the next two bits pick the state: helloing, rejected, streaming, closed
	)
	for _, b := range codecSeeds(f) {
		for state := uint8(0); state < 4; state++ {
			f.Add(b, uint8(TypeData), uint8(packet.Yellow), uint32(7), state<<1)
			f.Add(b, uint8(TypeData), uint8(packet.Red), uint32(8), state<<1) // another flow
			f.Add(b, uint8(TypeReject), uint8(packet.ACK), uint32(7), state<<1)
			f.Add(b, uint8(TypeClose), uint8(packet.ACK), uint32(7), state<<1)
			f.Add(b, uint8(TypeData), uint8(packet.Green), uint32(7), state<<1|modeRaw)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, typ, color uint8, flow uint32, mode uint8) {
		r, conn, now := testReceiver(t, func(cfg *ReceiverConfig) {
			cfg.Reconnect = true
			cfg.ProbeIdle = 100 * time.Millisecond
		})
		*now = now.Add(time.Millisecond)
		if err := r.maybeHello(*now); err != nil {
			t.Fatal(err)
		}
		switch mode >> 1 & 3 {
		case 1:
			r.Handle(controlDatagram(t, TypeReject, ReasonServerFull, 300*time.Millisecond), *now)
		case 2:
			r.Handle(labelledDatagram(t, 0, 1), *now)
		case 3:
			r.Handle(labelledDatagram(t, 0, 1), *now)
			r.Handle(controlDatagram(t, TypeClose, ReasonComplete, 0), *now)
		}

		b := append([]byte(nil), data...)
		if mode&modeRaw == 0 && len(b) >= HeaderSize {
			b[offType], b[offColor] = typ, color
			binary.BigEndian.PutUint32(b[offFlow:], flow)
			patchCRC(b)
		}
		h, _, decodeErr := DecodeDatagram(b)

		before, writes := r.Stats(), conn.count()
		*now = now.Add(time.Millisecond)
		r.Handle(b, *now)
		after := r.Stats()
		switch {
		case decodeErr != nil:
			before.DecodeErrors++
			fallthrough
		case h.Flow != 7:
			if !reflect.DeepEqual(before, after) || conn.count() != writes {
				t.Fatalf("datagram (flow %d, decode error %v) changed the receiver or wrote:\nbefore %+v\nafter  %+v",
					h.Flow, decodeErr, before, after)
			}
		}
		// Whatever it did, the receiver carries on.
		for k := 0; k < 50; k++ {
			*now = now.Add(50 * time.Millisecond)
			_ = r.maybeHello(*now)
			r.maybeProbe(*now)
		}
	})
}
