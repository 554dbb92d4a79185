package wire

import (
	"context"
	"errors"
	"net"
	"testing"
)

// TestReceiverRunReportsClosedConn: a closed socket under a live context
// must surface as an error wrapping net.ErrClosed — the receiver's read
// loop must not turn it into a clean nil return.
func TestReceiverRunReportsClosedConn(t *testing.T) {
	emu := NewEmulator(EmulatorConfig{})
	defer emu.Close()
	r, err := NewReceiver(emu.B(), ReceiverConfig{Flow: 1, Peer: emu.A().LocalAddr()})
	if err != nil {
		t.Fatal(err)
	}
	_ = emu.B().Close()
	if err := r.Run(context.Background()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Run on closed conn with live ctx: got %v, want net.ErrClosed", err)
	}
}
