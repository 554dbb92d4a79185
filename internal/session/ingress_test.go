package session

// Ingress tests: the front door on the netip path — what a datagram's
// source costs, what its key reads, and what a flood of made-up sources can
// take from the server.

import (
	"net"
	"net/netip"
	"testing"

	"repro/internal/packet"
	"repro/internal/wire"
)

// feedbackFrom plays the socket on the netip path: one feedback datagram for
// flow with the given epoch, from ap, encoded into buf.
func feedbackFrom(t *testing.T, s *Server, buf []byte, ap netip.AddrPort, flow uint32, epoch uint64) []byte {
	t.Helper()
	h := wire.Header{Type: wire.TypeFeedback, Color: packet.ACK, Flow: flow,
		Feedback: packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.01, Valid: true}}
	b, err := wire.AppendDatagram(buf[:0], h, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.handleDatagram(b, origin{ap: ap}, s.cfg.Clock.Now())
	return b
}

// TestHandleDatagramFeedbackZeroAllocs is the allocation contract of the
// front door: feedback from an address seen before costs no allocation from
// the read to the session's controllers. Each run is two full batches, so a
// cost paid once per dispatch shows as well.
func TestHandleDatagramFeedbackZeroAllocs(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, nil)
	peer := netip.MustParseAddrPort("10.77.0.1:20001")
	s.handleDatagram(helloDatagram(t, 1), origin{ap: peer}, clk.Now())
	if pumpLane(s) != 1 {
		t.Fatal("the hello admitted no session")
	}
	buf := make([]byte, 0, wire.HeaderSize)
	epoch := uint64(0)
	run := func() {
		for i := 0; i < 2*s.cfg.BatchCount; i++ {
			epoch++
			buf = feedbackFrom(t, s, buf, peer, 1, epoch)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%d feedback datagrams allocate %.0f times, want 0", 2*s.cfg.BatchCount, allocs)
	}
	if got := s.SessionStats()[0].FeedbackAccepted; got != epoch {
		t.Fatalf("the session accepted %d of %d feedback labels", got, epoch)
	}
}

// TestKeyTableMatchesNetAddr: the interned text is what the net.Addr of the
// same source prints, for every form of address a UDP socket can report, and
// the address a session is given to write to prints the same again.
func TestKeyTableMatchesNetAddr(t *testing.T) {
	s, _, _ := handServer(t, discard{}, nil)
	for _, text := range []string{
		"10.77.0.1:20001",
		"[2001:db8::1]:443",
		"[::1]:9000",
		"[fe80::1%eth0]:9000",
		"[::ffff:192.0.2.7]:80", // what a dual-stack socket reports for an IPv4 peer
	} {
		ap := netip.MustParseAddrPort(text)
		want := net.UDPAddrFromAddrPort(ap).String() // what ReadFrom returns for this source
		for range 2 {                                // the miss, then the hit
			if got := s.keyOf(origin{ap: ap}, 3); got != (Key{Addr: want, Flow: 3}) {
				t.Errorf("%s: key %q, want %q", text, got.Addr, want)
			}
		}
		if got := (origin{ap: ap}).netAddr().String(); got != want {
			t.Errorf("%s: a session would write to %q, want %q", text, got, want)
		}
	}
}

// TestKeyTableBoundedUnderSpoofedFlood: ten times the table's bound of
// feedback datagrams from made-up sources never grow it past the bound, and
// a real receiver's feedback still finds its session afterwards.
func TestKeyTableBoundedUnderSpoofedFlood(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.MaxSessions = 8
		cfg.BatchCount = 1
	})
	peer := netip.MustParseAddrPort("[2001:db8::5]:7000")
	s.handleDatagram(helloDatagram(t, 1), origin{ap: peer}, clk.Now())
	pumpLane(s)
	bound := s.keys.max
	if bound != 2*s.cfg.MaxSessions {
		t.Fatalf("bound %d, want twice MaxSessions (%d)", bound, s.cfg.MaxSessions)
	}
	buf := make([]byte, 0, wire.HeaderSize)
	for i := 0; i < 10*bound; i++ {
		spoofed := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), uint16(1024+i))
		buf = feedbackFrom(t, s, buf, spoofed, 1, uint64(i+1))
		if len(s.keys.m) > bound {
			t.Fatalf("after %d spoofed sources the table holds %d keys, bound %d", i+1, len(s.keys.m), bound)
		}
	}
	if got := s.SessionStats()[0].FeedbackAccepted; got != 0 {
		t.Fatalf("spoofed feedback reached the session %d times", got)
	}
	feedbackFrom(t, s, buf, peer, 1, 1)
	if got := s.SessionStats()[0].FeedbackAccepted; got != 1 {
		t.Fatalf("after the flood the receiver's feedback was accepted %d times, want 1", got)
	}
}
