package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/units"
)

// TestReceiverRunReportsClosedConn: an unexpected socket closure while the
// context is still live must surface as an error wrapping net.ErrClosed —
// the receiver's read loop must not turn it into a clean nil return.
func TestReceiverRunReportsClosedConn(t *testing.T) {
	emu := NewEmulator(EmulatorConfig{})
	defer emu.Close()
	r := NewReceiver(emu.B(), ReceiverConfig{Flow: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()

	time.Sleep(10 * time.Millisecond)
	_ = emu.B().Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Run on closed conn with live ctx: got %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return after conn close")
	}
}

// TestGatewayRejectsPositiveMinLoss: a positive clamp would turn the
// spare-capacity signal into permanent congestion; construction must
// refuse it loudly, mirroring aqm.NewFeedback.
func TestGatewayRejectsPositiveMinLoss(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGateway with positive MinLoss did not panic")
		}
	}()
	NewGateway(GatewayConfig{RouterID: 1, Interval: time.Millisecond, Capacity: units.Mbps, MinLoss: 0.5})
}
