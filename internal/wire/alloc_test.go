package wire

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// TestAppendDatagramZeroAllocs is the allocation regression gate for the
// encode hot path: with a pre-sized destination buffer, encoding must not
// touch the heap.
func TestAppendDatagramZeroAllocs(t *testing.T) {
	h := sampleHeader()
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	buf := make([]byte, 0, MaxDatagram)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendDatagram(buf[:0], h, payload)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendDatagram allocates %.1f/op into a sized buffer, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendData(buf[:0], h.Color, h.Flow, h.Frame, h.Index, h.Seq, h.Timestamp, 1000)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendData allocates %.1f/op into a sized buffer, want 0", allocs)
	}
}

// TestDecodeDatagramZeroAllocs: decode returns a value header and a payload
// aliasing the input, so it must not allocate either.
func TestDecodeDatagramZeroAllocs(t *testing.T) {
	b, err := EncodeDatagram(sampleHeader(), bytes.Repeat([]byte{0xCD}, 1000))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeDatagram(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeDatagram allocates %.1f/op, want 0", allocs)
	}
}

// TestRouterHopZeroAllocs holds the router hop's byte work at zero
// allocations: the gateway's mark, with its clock a millisecond further on at
// every datagram so the 30 ms windows close inside the measured runs, and
// the feedback stamp on its own, alternating labels so every other stamp
// rewrites the datagram and its checksum.
func TestRouterHopZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, dg []byte) func()
	}{
		{"Gateway.Mark", func(t *testing.T, dg []byte) func() {
			now := time.Unix(1700000000, 0)
			g := NewGateway(GatewayConfig{
				RouterID: 1,
				Interval: 30 * time.Millisecond,
				Capacity: 4 * units.Mbps,
				Now:      func() time.Time { return now },
			})
			return func() {
				now = now.Add(time.Millisecond)
				g.Mark(dg)
			}
		}},
		{"StampFeedback", func(t *testing.T, dg []byte) func() {
			i := 0
			return func() {
				i++
				fb := packet.Feedback{RouterID: 9, Epoch: uint64(i), Loss: float64(i%2) * 0.5, Valid: true}
				if err := StampFeedback(dg, fb); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dg, err := EncodeDatagram(sampleHeader(), bytes.Repeat([]byte{0xEF}, 1000))
			if err != nil {
				t.Fatal(err)
			}
			run := tc.run(t, dg)
			for i := 0; i < 100; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
				t.Errorf("%s allocates %.2f/op, want 0", tc.name, allocs)
			}
			if _, _, err := DecodeDatagram(dg); err != nil {
				t.Errorf("%s left a datagram that does not decode: %v", tc.name, err)
			}
		})
	}
}

// TestAppendDatagramSinglePassCRCMatchesCrcOf pins the encode checksum to
// the three-part definition the verifiers use: the single-pass shortcut is
// only valid because the CRC field is zero at encode time.
func TestAppendDatagramSinglePassCRCMatchesCrcOf(t *testing.T) {
	for _, h := range []Header{
		sampleHeader(),
		{Type: TypeFeedback, Color: packet.ACK, Seq: 9,
			Feedback: packet.Feedback{RouterID: 4, Epoch: 2, Loss: 0.125, Valid: true}},
		{Type: TypeHello, Color: packet.ACK},
	} {
		b, err := EncodeDatagram(h, []byte("payload bytes"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeDatagram(b); err != nil {
			t.Errorf("%v datagram rejected by its own checksum: %v", h.Type, err)
		}
	}
}

// TestSystemClockSleepZeroAllocs: the server's driver sleeps once per
// wheel tick, so a Sleep must reuse its timer — both when it runs to the
// end and when the context cuts it short.
func TestSystemClockSleepZeroAllocs(t *testing.T) {
	var clk SystemClock
	ctx, cancel := context.WithCancel(context.Background())
	_ = clk.Sleep(ctx, time.Microsecond) // stock the free list
	if allocs := testing.AllocsPerRun(100, func() {
		if err := clk.Sleep(ctx, 10*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Sleep allocates %.1f/op in the steady state, want 0", allocs)
	}
	cancel()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := clk.Sleep(ctx, time.Hour); err == nil {
			t.Fatal("Sleep outlasted a cancelled context")
		}
	}); allocs != 0 {
		t.Errorf("Sleep allocates %.1f/op when cancelled, want 0", allocs)
	}
	// A timer cut short goes back stopped and drained: the next sleeper
	// on it must wait its whole duration.
	start := time.Now()
	if err := clk.Sleep(context.Background(), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 5*time.Millisecond {
		t.Errorf("Sleep after a cancelled one returned in %v, want ≥ 5ms", got)
	}
}
