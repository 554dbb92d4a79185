package wire

import (
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// readOne reads a single datagram with a deadline.
func readOne(t *testing.T, c net.PacketConn, timeout time.Duration) []byte {
	t.Helper()
	buf := make([]byte, MaxDatagram)
	_ = c.SetReadDeadline(time.Now().Add(timeout))
	n, _, err := c.ReadFrom(buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	return buf[:n]
}

// TestEmulatorDelivers: bytes written on A arrive on B intact and in
// order, and vice versa.
func TestEmulatorDelivers(t *testing.T) {
	e := NewEmulator(EmulatorConfig{})
	defer e.Close()

	msgs := []string{"one", "two", "three"}
	for _, m := range msgs {
		if _, err := e.A().WriteTo([]byte(m), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		if got := string(readOne(t, e.B(), time.Second)); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	if _, err := e.B().WriteTo([]byte("back"), nil); err != nil {
		t.Fatal(err)
	}
	if got := string(readOne(t, e.A(), time.Second)); got != "back" {
		t.Fatalf("reverse path: got %q", got)
	}
}

// TestEmulatorDeadline: an idle read returns os.ErrDeadlineExceeded, and
// Close unblocks pending reads with net.ErrClosed.
func TestEmulatorDeadline(t *testing.T) {
	e := NewEmulator(EmulatorConfig{})
	buf := make([]byte, 16)
	_ = e.A().SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := e.A().ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}

	done := make(chan error, 1)
	_ = e.B().SetReadDeadline(time.Time{})
	go func() {
		_, _, err := e.B().ReadFrom(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("got %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock ReadFrom")
	}
}

// TestEmulatorDeterministicLoss: with a fixed seed, exactly the same
// datagrams (by position) survive across runs.
func TestEmulatorDeterministicLoss(t *testing.T) {
	deliveredSet := func() map[string]bool {
		e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{loss: 0.4, seed: 42}})
		defer e.Close()
		for i := 0; i < 50; i++ {
			_, _ = e.A().WriteTo([]byte{byte(i)}, nil)
		}
		got := map[string]bool{}
		for {
			buf := make([]byte, 4)
			_ = e.B().SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, _, err := e.B().ReadFrom(buf)
			if err != nil {
				break
			}
			got[string(buf[:n])] = true
		}
		return got
	}
	a, b := deliveredSet(), deliveredSet()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("loss 0.4 delivered %d of 50", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d datagrams", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("runs disagree on datagram %x", k)
		}
	}
}

// TestEmulatorBandwidthShapes: delivery of a burst takes at least the
// serialization time of the configured bandwidth.
func TestEmulatorBandwidthShapes(t *testing.T) {
	// 10 datagrams × 1250 bytes at 1 Mbit/s = 100 ms on the wire.
	e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{Bandwidth: units.Mbps}})
	defer e.Close()
	start := time.Now()
	pkt := make([]byte, 1250)
	for i := 0; i < 10; i++ {
		_, _ = e.A().WriteTo(pkt, nil)
	}
	for i := 0; i < 10; i++ {
		readOne(t, e.B(), time.Second)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("burst delivered in %v, want >= ~100ms of serialization", elapsed)
	}
}

// TestEmulatorPriorityEviction: when the queue overflows, red datagrams
// are evicted before yellow before green — green survives congestion
// untouched, the core PELS property.
func TestEmulatorPriorityEviction(t *testing.T) {
	const size = 125
	gw := NewGateway(GatewayConfig{RouterID: 1, Interval: time.Hour, Capacity: units.Mbps})
	e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{
		// Slow link + tiny queue: only 4 datagrams fit behind the
		// serializer, everything else must be evicted.
		Bandwidth:  64 * units.Kbps,
		QueueBytes: 4 * size,
		Marker:     gw,
	}})
	defer e.Close()

	// Park a sacrificial best-effort datagram in the serializer first
	// (15.6 ms of transmission time at 64 kbit/s), so the whole test
	// burst contends for the queue instead of racing the serializer.
	_, _ = e.A().WriteTo(dataDatagram(t, packet.BestEffort, size), nil)
	time.Sleep(5 * time.Millisecond)

	// Offer 4 red, then 4 yellow, then 4 green back to back. The queue
	// can hold 4: each arriving higher-priority datagram evicts the
	// worst queued one, so the survivors should be the 4 green.
	var sent []packet.Color
	for _, c := range []packet.Color{packet.Red, packet.Yellow, packet.Green} {
		for i := 0; i < 4; i++ {
			sent = append(sent, c)
			_, _ = e.A().WriteTo(dataDatagram(t, c, size), nil)
		}
	}
	counts := map[packet.Color]int{}
	for {
		buf := make([]byte, MaxDatagram)
		_ = e.B().SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, _, err := e.B().ReadFrom(buf)
		if err != nil {
			break
		}
		h, _, err := DecodeDatagram(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		counts[h.Color]++
	}
	if counts[packet.Green] != 4 {
		t.Fatalf("green not protected: delivered %v of %v", counts, sent)
	}
	if counts[packet.Red] != 0 {
		t.Fatalf("red should be evicted first: delivered %v", counts)
	}
	st := e.StatsAtoB()
	if st.OverflowDrops == 0 {
		t.Fatal("no overflow drops recorded despite eviction")
	}
}

// TestShapedConn: writes pass through the shaping link to the inner
// conn with the destination address preserved.
func TestShapedConn(t *testing.T) {
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	peer, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback UDP available")
	}
	defer peer.Close()

	shaped := NewShapedConn(inner, LinkConfig{Bandwidth: 10 * units.Mbps})
	defer shaped.Close()
	if _, err := shaped.WriteTo([]byte("through the bottleneck"), peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got := readOne(t, peer, 2*time.Second)
	if string(got) != "through the bottleneck" {
		t.Fatalf("got %q", got)
	}
	if st := shaped.Stats(); st.Delivered != 1 {
		t.Fatalf("stats %+v, want 1 delivered", st)
	}
}

// TestEmulatorReadZeroAllocs: a read that finds a datagram in the inbox
// reads no clock and arms no timer, and a read that has to wait parks on
// the endpoint's one timer, so neither allocates — whether the wait ends in
// a datagram the link delivers a millisecond later or at the deadline.
func TestEmulatorReadZeroAllocs(t *testing.T) {
	e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{Delay: time.Millisecond}})
	defer e.Close()
	a, b := e.A(), e.B()
	msg, buf := make([]byte, 100), make([]byte, MaxDatagram)
	read := func() {
		if n, _, err := b.ReadFrom(buf); err != nil || n != len(msg) {
			t.Fatalf("read %d bytes, %v", n, err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"finds data", func() {
			_, _ = a.WriteTo(msg, nil)
			for len(e.b.inbox) == 0 {
				runtime.Gosched()
			}
			_ = b.SetReadDeadline(time.Now().Add(time.Second))
			read()
		}},
		{"waits for data", func() {
			_ = b.SetReadDeadline(time.Now().Add(time.Second))
			_, _ = a.WriteTo(msg, nil)
			read()
		}},
		{"waits out the deadline", func() {
			_ = b.SetReadDeadline(time.Now().Add(200 * time.Microsecond))
			if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("got %v, want deadline exceeded", err)
			}
		}},
	} {
		tc.run() // stock the link's free lists and the reader's timer
		if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
			t.Errorf("a read that %s allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}
