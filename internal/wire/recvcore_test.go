package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
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

	t.Run("layers", func(t *testing.T) {
		// Every data color has its own sequence space, a layer past the
		// third included, and a reset archives its counts like the rest.
		c := newRecvCore(&helloPolicy{retry: retry, max: retry, reconnect: true}, 7, 1, now)
		l5 := packet.LayerColor(5)
		for _, h := range []Header{{Color: l5, Seq: 0}, {Color: l5, Seq: 2}, {Color: packet.BestEffort, Seq: 0}, {Color: packet.Green, Seq: 0}} {
			h.Type, h.Flow = TypeData, 7
			c.onData(h, HeaderSize, now)
		}
		control(&c, TypeClose, ReasonIdle, 0)
		for _, seq := range []uint64{0, 1} {
			c.onData(Header{Type: TypeData, Color: l5, Flow: 7, Seq: seq}, HeaderSize, now)
		}
		st := c.snapshot()
		want := map[packet.Color]ColorCount{
			l5:                {Received: 4, Lost: 1, Bytes: 4 * HeaderSize},
			packet.BestEffort: {Received: 1, Bytes: HeaderSize},
			packet.Green:      {Received: 1, Bytes: HeaderSize},
		}
		if !reflect.DeepEqual(st.Colors, want) || st.SeqRegressions != 0 {
			t.Fatalf("colors %+v with %d regressions, want %+v and none", st.Colors, st.SeqRegressions, want)
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

// FuzzReceiverHandle throws arbitrary datagrams at a one-receiver swarm
// with probes armed: raw bytes as they come, or the same bytes
// re-addressed with the fuzzer's type, color and flow under a good
// checksum so they get past the decoder. The receiver starts in each state
// it can be in — helloing, rejected and backing off, streaming, closed.
// The contract: no panic and no index out of range, a datagram for
// another flow changes nothing, and one that does not decode moves only
// the swarm's decode-error count.
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
	b := codecSeeds(f)[0]
	for l := 3; l < packet.MaxLayers; l++ {
		f.Add(b, uint8(TypeData), uint8(packet.LayerColor(l)), uint32(7), uint8(2<<1)) // streaming
	}

	f.Fuzz(func(t *testing.T, data []byte, typ, color uint8, flow uint32, mode uint8) {
		s, log, now := testReceiver(t, func(cfg *SwarmConfig) {
			cfg.Reconnect = true
			cfg.ProbeIdle = 100 * time.Millisecond
		})
		if err := crank(s, now, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		switch mode >> 1 & 3 {
		case 1:
			s.handle(0, controlDatagram(t, TypeReject, ReasonServerFull, 300*time.Millisecond), *now)
		case 2:
			s.handle(0, labelledDatagram(t, 0, 1), *now)
		case 3:
			s.handle(0, labelledDatagram(t, 0, 1), *now)
			s.handle(0, controlDatagram(t, TypeClose, ReasonComplete, 0), *now)
		}

		b := append([]byte(nil), data...)
		if mode&modeRaw == 0 && len(b) >= HeaderSize {
			b[offType], b[offColor] = typ, color
			binary.BigEndian.PutUint32(b[offFlow:], flow)
			patchCRC(b)
		}
		h, _, decodeErr := DecodeDatagram(b)

		before, writes, decodes := stats(s), len(log.sent), s.DecodeErrors()
		*now = now.Add(time.Millisecond)
		s.handle(0, b, *now)
		after := stats(s)
		switch {
		case decodeErr != nil:
			decodes++
			fallthrough
		case h.Flow != 7:
			if !reflect.DeepEqual(before, after) || len(log.sent) != writes || s.DecodeErrors() != decodes {
				t.Fatalf("datagram (flow %d, decode error %v) changed the receiver, wrote, or miscounted (%d decode errors, want %d):\nbefore %+v\nafter  %+v",
					h.Flow, decodeErr, s.DecodeErrors(), decodes, before, after)
			}
		}
		// Whatever it did, the receiver carries on, or has ended.
		_ = crank(s, now, 2500*time.Millisecond)
	})
}

// TestReportColors: a delivery report lists the paper's three colors
// always and every other data color with traffic, in layer order with
// best-effort last — so an 8-layer stream reports all eight layers and a
// 3-layer one exactly green, yellow, red.
func TestReportColors(t *testing.T) {
	counts := func(cs ...packet.Color) map[packet.Color]ColorCount {
		m := map[packet.Color]ColorCount{}
		for _, c := range cs {
			m[c] = ColorCount{Received: 1}
		}
		return m
	}
	var eight []packet.Color
	for l := 0; l < 8; l++ {
		eight = append(eight, packet.LayerColor(l))
	}
	paper := []packet.Color{packet.Green, packet.Yellow, packet.Red}
	for _, tc := range []struct {
		counts map[packet.Color]ColorCount
		want   []packet.Color
	}{
		{counts(), paper},
		{counts(packet.Green, packet.Red), paper},
		{counts(eight...), eight},
		{counts(packet.BestEffort, packet.Green, packet.LayerColor(5)), append(slices.Clone(paper), packet.LayerColor(5), packet.BestEffort)},
	} {
		if got := ReportColors(tc.counts); !slices.Equal(got, tc.want) {
			t.Errorf("ReportColors(%v) = %v, want %v", tc.counts, got, tc.want)
		}
	}
}
