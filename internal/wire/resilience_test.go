package wire

import (
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// fakeAddr is a trivial net.Addr for socket-free tests.
type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

// nullConn is a net.PacketConn that discards writes and is never read.
type nullConn struct{}

func (nullConn) ReadFrom([]byte) (int, net.Addr, error)    { panic("nullConn: ReadFrom unused") }
func (nullConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (nullConn) Close() error                              { return nil }
func (nullConn) LocalAddr() net.Addr                       { return fakeAddr("local") }
func (nullConn) SetDeadline(time.Time) error               { return nil }
func (nullConn) SetReadDeadline(time.Time) error           { return nil }
func (nullConn) SetWriteDeadline(time.Time) error          { return nil }

// TestReceiverProbesWithBoundedBackoff: a streaming receiver that hears
// nothing for ProbeIdle re-echoes its last label, doubling the wait up to
// 8·ProbeIdle, and data rearms the wait at ProbeIdle.
func TestReceiverProbesWithBoundedBackoff(t *testing.T) {
	s, log, now := testReceiver(t, func(cfg *SwarmConfig) { cfg.ProbeIdle = 100 * time.Millisecond })
	feedback := func() []sentDatagram {
		var out []sentDatagram
		for _, d := range log.sent {
			if d.typ == TypeFeedback {
				out = append(out, d)
			}
		}
		return out
	}
	step := func(d time.Duration) int {
		t.Helper()
		if err := crank(s, now, d); err != nil {
			t.Fatal(err)
		}
		return len(feedback())
	}

	// Idle before any stream: no label to probe with, only hellos sent.
	if n := step(time.Second); n != 0 || len(log.sent) == 0 {
		t.Fatalf("%d feedback datagrams among %d writes before any label", n, len(log.sent))
	}

	// One data datagram with a valid label: echoed once, probing armed.
	s.handle(0, labelledDatagram(t, 0, 1), *now)
	if n := len(feedback()); n != 1 {
		t.Fatalf("want 1 echo, got %d", n)
	}

	// Idle past ProbeIdle: a probe fires, then the wait doubles (200ms).
	if step(150*time.Millisecond) != 2 {
		t.Fatal("want a probe after idle")
	}
	if step(100*time.Millisecond) != 2 { // only 150ms since the probe
		t.Fatal("probe ignored the backoff")
	}
	if step(100*time.Millisecond) != 3 { // 250ms since the probe
		t.Fatal("second probe missing after backoff elapsed")
	}

	// The wait caps at 8·ProbeIdle: after 400ms and 800ms, the next probe
	// comes 800ms later, not 1600ms.
	if step(350*time.Millisecond) != 4 || step(800*time.Millisecond) != 5 {
		t.Fatal("probes missing on the doubling waits")
	}
	if step(800*time.Millisecond-helloTick) != 5 || step(helloTick) != 6 {
		t.Fatal("probe missing at the capped interval")
	}

	// Every probe re-echoes the last label, with advancing reverse-path
	// sequence numbers.
	fb := feedback()
	for i, d := range fb[1:] {
		if !d.label.Valid || d.label.RouterID != 1 {
			t.Fatalf("probe %d carries wrong label: %+v", i+1, d)
		}
		if d.seq <= fb[i].seq {
			t.Fatalf("probe seq did not advance: %d after %d", d.seq, fb[i].seq)
		}
	}
	if got := stats(s).Probes; got != 5 {
		t.Fatalf("Probes = %d, want 5", got)
	}

	// Data resumes: the backoff rearms at ProbeIdle.
	s.handle(0, labelledDatagram(t, 1, 2), *now)
	base := len(feedback())
	if step(110*time.Millisecond) != base+1 {
		t.Fatal("backoff did not rearm after data resumed")
	}
}

func TestMarkerSwitchSwapsLive(t *testing.T) {
	clk := newFakeClock()
	gwA := NewGateway(gwConfig(clk, units.Mbps))
	sw := NewMarkerSwitch(gwA)

	b := dataDatagram(t, packet.Green, 125)
	if sw.Mark(b) {
		t.Fatal("gateway dropped a marked datagram")
	}
	if got, want := sw.Priority(b), gwA.Priority(b); got != want {
		t.Fatalf("priority through switch = %d, want %d", got, want)
	}

	// Swap to a new gateway (new RouterID, epoch counter back at zero):
	// the next stamped label must carry the new identity.
	cfgB := gwConfig(clk, units.Mbps)
	cfgB.RouterID = 2
	sw.Set(NewGateway(cfgB))
	b2 := dataDatagram(t, packet.Green, 125)
	clk.advance(20 * time.Millisecond)
	sw.Mark(b2) // closes window zero of gateway B
	b3 := dataDatagram(t, packet.Green, 125)
	sw.Mark(b3)
	h, _, err := DecodeDatagram(b3)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Feedback.Valid || h.Feedback.RouterID != 2 {
		t.Fatalf("stamp after swap = %+v, want router 2", h.Feedback)
	}

	// Nil marker: pass-through, uniform priority.
	sw.Set(nil)
	if sw.Mark(b3) || sw.Priority(b3) != 0 {
		t.Fatal("nil marker must pass everything with priority 0")
	}
}
