package wire

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// fakeAddr is a trivial net.Addr for socket-free tests.
type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

// captureConn is a net.PacketConn that records writes; tests drive reads
// through Handle/maybeProbe directly, so ReadFrom is never used.
type captureConn struct {
	mu     sync.Mutex
	writes [][]byte
}

func (c *captureConn) ReadFrom([]byte) (int, net.Addr, error) {
	panic("captureConn: ReadFrom unused")
}

func (c *captureConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *captureConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writes)
}

func (c *captureConn) write(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes[i]
}

func (c *captureConn) Close() error                     { return nil }
func (c *captureConn) LocalAddr() net.Addr              { return fakeAddr("local") }
func (c *captureConn) SetDeadline(time.Time) error      { return nil }
func (c *captureConn) SetReadDeadline(time.Time) error  { return nil }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

func TestReceiverProbesWithBoundedBackoff(t *testing.T) {
	now := time.Unix(2000, 0)
	conn := &captureConn{}
	r, err := NewReceiver(conn, ReceiverConfig{
		Peer:      fakeAddr("sender"),
		Flow:      1,
		ProbeIdle: 100 * time.Millisecond,
		ProbeMax:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Idle before any stream: no label to probe with, nothing sent.
	r.maybeProbe(now)
	if conn.count() != 0 {
		t.Fatal("probed before any feedback label was seen")
	}

	// One data datagram with a valid label: echoed once, probing armed.
	data, err := EncodeDatagram(Header{
		Type: TypeData, Color: packet.Green, Flow: 1, Seq: 0,
		Feedback: packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0.25, Valid: true},
	}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r.Handle(data, now)
	if conn.count() != 1 {
		t.Fatalf("want 1 echo, got %d writes", conn.count())
	}

	// Idle past ProbeIdle: a probe fires, then the wait doubles (200ms).
	now = now.Add(150 * time.Millisecond)
	r.maybeProbe(now)
	if conn.count() != 2 {
		t.Fatalf("want probe after idle, got %d writes", conn.count())
	}
	now = now.Add(100 * time.Millisecond) // only 100ms since last probe
	r.maybeProbe(now)
	if conn.count() != 2 {
		t.Fatal("probe ignored the backoff")
	}
	now = now.Add(100 * time.Millisecond) // 200ms since last probe
	r.maybeProbe(now)
	if conn.count() != 3 {
		t.Fatal("second probe missing after backoff elapsed")
	}

	// Backoff is capped at ProbeMax: the next probe comes 300ms later,
	// not 400ms.
	now = now.Add(300 * time.Millisecond)
	r.maybeProbe(now)
	if conn.count() != 4 {
		t.Fatal("probe missing at the capped interval")
	}

	// Every probe is a decodable feedback datagram re-echoing the last
	// label, with advancing reverse-path sequence numbers.
	var lastSeq uint64
	for i := 1; i < conn.count(); i++ {
		h, _, err := DecodeDatagram(conn.write(i))
		if err != nil {
			t.Fatalf("probe %d does not decode: %v", i, err)
		}
		if h.Type != TypeFeedback || !h.Feedback.Valid || h.Feedback.RouterID != 1 {
			t.Fatalf("probe %d carries wrong label: %+v", i, h)
		}
		if i > 1 && h.Seq <= lastSeq {
			t.Fatalf("probe seq did not advance: %d after %d", h.Seq, lastSeq)
		}
		lastSeq = h.Seq
	}
	if got := r.Stats().Probes; got != 3 {
		t.Fatalf("Probes = %d, want 3", got)
	}

	// Data resumes: the backoff rearms at ProbeIdle.
	data2, err := EncodeDatagram(Header{
		Type: TypeData, Color: packet.Green, Flow: 1, Seq: 1,
		Feedback: packet.Feedback{RouterID: 1, Epoch: 2, Loss: 0.25, Valid: true},
	}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r.Handle(data2, now)
	base := conn.count()
	now = now.Add(110 * time.Millisecond)
	r.maybeProbe(now)
	if conn.count() != base+1 {
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
