package wire_test

// The live sender is session.Session, pumped by a session.Server. These
// tests drive it from outside, the way a receiver does: a hello and
// feedback datagrams arrive on the server's socket, and every data datagram
// the server writes is decoded and recorded. Two of them run the server on
// a clock that stands still until the test moves it, so each wake happens
// at an instant the test chose.

import (
	"context"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// peerAddr is the one receiver's address.
type peerAddr struct{}

func (peerAddr) Network() string { return "fake" }
func (peerAddr) String() string  { return "peer" }

// inboundConn is a server socket whose only inbound datagrams are the ones
// the test hands it, all from peerAddr; what the server writes to it (its
// Close) is discarded.
type inboundConn struct{ in chan []byte }

// newInboundConn returns a socket that already holds a hello on flow 1.
func newInboundConn(t *testing.T) *inboundConn {
	c := &inboundConn{in: make(chan []byte, 64)}
	c.send(t, wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: 1})
	return c
}

func (c *inboundConn) send(t *testing.T, h wire.Header) {
	t.Helper()
	b, err := wire.EncodeDatagram(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.in <- b
}

// feedback hands the server one echoed label on flow 1.
func (c *inboundConn) feedback(t *testing.T, fb packet.Feedback) {
	t.Helper()
	c.send(t, wire.Header{Type: wire.TypeFeedback, Color: packet.ACK, Flow: 1, Feedback: fb})
}

func (c *inboundConn) ReadFrom(b []byte) (int, net.Addr, error) {
	select {
	case d := <-c.in:
		return copy(b, d), peerAddr{}, nil
	case <-time.After(time.Millisecond):
		return 0, nil, os.ErrDeadlineExceeded
	}
}

func (c *inboundConn) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }
func (c *inboundConn) Close() error                              { return nil }
func (c *inboundConn) LocalAddr() net.Addr                       { return peerAddr{} }
func (c *inboundConn) SetDeadline(time.Time) error               { return nil }
func (c *inboundConn) SetReadDeadline(time.Time) error           { return nil }
func (c *inboundConn) SetWriteDeadline(time.Time) error          { return nil }

// sentLog is the server's data path: it records every datagram's header
// and the wall-clock instant it was written.
type sentLog struct {
	mu      sync.Mutex
	headers []wire.Header
	at      []time.Time
}

func (l *sentLog) WriteTo(b []byte, _ net.Addr) (int, error) {
	at := time.Now()
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	l.mu.Lock()
	l.headers = append(l.headers, h)
	l.at = append(l.at, at)
	l.mu.Unlock()
	return len(b), nil
}

func (l *sentLog) snapshot() ([]wire.Header, []time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Header(nil), l.headers...), append([]time.Time(nil), l.at...)
}

// waitStamp waits until a datagram stamped at instant at has been written:
// the server has pumped the session at that instant.
func (l *sentLog) waitStamp(t *testing.T, at time.Time) {
	t.Helper()
	waitFor(t, "a datagram stamped at "+at.String(), func() bool {
		hs, _ := l.snapshot()
		return len(hs) > 0 && hs[len(hs)-1].Timestamp == at.UnixNano()
	})
}

// manualClock is a clock that stands still until the test advances it. Its
// Sleep returns after a millisecond of wall time, so the wheel driver polls
// it.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Sleep(ctx context.Context, _ time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Millisecond):
		return nil
	}
}

func (c *manualClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// waitFor polls cond for up to ten seconds of wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runServer starts srv and stops it when the test ends.
func runServer(t *testing.T, srv *session.Server) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server: %v", err)
		}
	})
}

// admitted waits for the hello to be admitted and returns its session.
func admitted(t *testing.T, srv *session.Server) *session.Session {
	t.Helper()
	var s *session.Session
	waitFor(t, "the hello's session", func() bool {
		srv.Table().Range(func(_ session.Key, sess *session.Session) bool {
			s = sess
			return false
		})
		return s != nil
	})
	return s
}

// manualServer runs a one-session server on a clock standing at t0, with
// feedback dispatched label by label and the idle reaper off.
func manualServer(t *testing.T, t0 time.Time, cfg session.Config) (*inboundConn, *sentLog, *manualClock, *session.Session) {
	t.Helper()
	conn, out, clk := newInboundConn(t), &sentLog{}, &manualClock{now: t0}
	srv, err := session.NewServer(session.ServerConfig{
		Conn:        conn,
		Out:         out,
		Clock:       clk,
		Session:     cfg,
		IdleTimeout: -1,
		BatchCount:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runServer(t, srv)
	s := admitted(t, srv)
	out.waitStamp(t, t0) // the opening burst
	return conn, out, clk, s
}

// waitAccepted waits until the session has accepted n feedback labels.
func waitAccepted(t *testing.T, s *session.Session, n uint64, what string) {
	t.Helper()
	waitFor(t, what, func() bool { return s.Stats().FeedbackAccepted >= n })
}

func TestSenderStaleWatchdogDecaysAndRecovers(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 100-byte packets in 80 ms frames. The MKC floor, 48 kb/s, is 480 B a
	// frame: the base packet and three enhancement packets.
	const floorPackets = 4
	conn, out, clk, s := manualServer(t, t0, session.Config{
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 16, GreenPackets: 1},
		FrameInterval: 80 * time.Millisecond,
		MKC:           cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 120 * units.Kbps, MinRate: 48 * units.Kbps, DedupEpochs: true},
		StaleTimeout:  100 * time.Millisecond,
	})
	// wake moves the clock on by d and returns the session's stats once the
	// server has pumped it at the new instant; the watchdog runs first thing
	// in every pump.
	wake := func(d time.Duration) session.Stats {
		out.waitStamp(t, clk.advance(d))
		return s.Stats()
	}

	// A fresh label arms the watchdog.
	conn.feedback(t, packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0, Valid: true})
	waitAccepted(t, s, 1, "the first feedback")
	full := s.Stats().Rate

	// Within the horizon: nothing decays.
	if st := wake(50 * time.Millisecond); st.Degrade != 1 || st.StaleDecays != 0 {
		t.Fatalf("decayed inside the horizon: %+v", st)
	}

	// Past the horizon: one decay, and at most one per elapsed horizon.
	if st := wake(100 * time.Millisecond); st.Degrade != 0.5 || st.StaleDecays != 1 {
		t.Fatalf("want a single 0.5 decay: %+v", st)
	}
	if st := wake(100 * time.Millisecond); st.Degrade != 0.25 || st.StaleDecays != 2 {
		t.Fatalf("want second decay to 0.25: %+v", st)
	}

	// However long the outage, the effective rate keeps a floor: the MKC
	// minimum rate (the degraded stream falls back to the base layer, it
	// does not go silent). Every frame planned after 40 horizons is sized
	// at the floor's budget or more.
	for i := 0; i < 40; i++ {
		wake(100 * time.Millisecond)
	}
	hs, _ := out.snapshot()
	from := hs[len(hs)-1].Frame
	for i := 0; i < 5; i++ {
		wake(100 * time.Millisecond)
	}
	hs, _ = out.snapshot()
	last := hs[len(hs)-1].Frame
	perFrame := map[uint32]int{}
	for _, h := range hs {
		perFrame[h.Frame]++
	}
	if last <= from+1 {
		t.Fatalf("no whole frame planned after the outage: frames %d to %d", from, last)
	}
	for f := from + 1; f < last; f++ {
		if perFrame[f] < floorPackets {
			t.Fatalf("frame %d carries %d packets, below the MKC floor's %d", f, perFrame[f], floorPackets)
		}
	}

	// One fresh label restores the controller rate in a single step.
	conn.feedback(t, packet.Feedback{RouterID: 1, Epoch: 2, Loss: 0, Valid: true})
	waitAccepted(t, s, 2, "the recovery feedback")
	st := s.Stats()
	if st.Degrade != 1 || st.Recoveries != 1 {
		t.Fatalf("recovery did not restore degrade: %+v", st)
	}
	if st.Rate < full {
		t.Fatalf("controller rate regressed across the outage: %v < %v", st.Rate, full)
	}
}

// TestSenderStampsAtTheWrite: a paced datagram's Timestamp is taken after its
// pacing wait, not before it. A stamp taken before the wait is microseconds
// past the previous write; one taken after it is a whole wait past it, less
// whatever the previous sleep overslept — the bucket repays that — so a
// quarter of the wait tells them apart on any host.
func TestSenderStampsAtTheWrite(t *testing.T) {
	out := &sentLog{}
	// One datagram of credit, then 100 B at 40 kb/s: 20 ms a datagram, four
	// datagrams a frame.
	srv, err := session.NewServer(session.ServerConfig{
		Conn:  newInboundConn(t),
		Out:   out,
		Clock: wire.SystemClock{},
		Session: session.Config{
			Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 16, GreenPackets: 1},
			FrameInterval: 80 * time.Millisecond,
			MKC:           cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 40 * units.Kbps, MinRate: 16 * units.Kbps},
			BurstBytes:    100,
			MaxFrames:     1,
		},
		ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("the one-frame session never finished")
	}
	hs, at := out.snapshot()
	if len(hs) != 4 {
		t.Fatalf("%d datagrams, want 4", len(hs))
	}
	const wait = 20 * time.Millisecond
	for i := 1; i < len(hs); i++ {
		stamp := time.Unix(0, hs[i].Timestamp)
		if since := stamp.Sub(at[i-1]); since < wait/4 {
			t.Errorf("datagram %d stamped %v after the previous write: before its %v pacing wait", i, since, wait)
		}
		if stamp.After(at[i]) {
			t.Errorf("datagram %d stamped %v after it was written", i, stamp.Sub(at[i]))
		}
	}
}

func TestSenderRouterChangeResetsGamma(t *testing.T) {
	conn, _, _, s := manualServer(t, time.Unix(1000, 0), session.Config{})
	initial := s.Stats().Gamma

	// Adapt γ upward against heavy loss from router 1.
	for e := uint64(1); e <= 10; e++ {
		conn.feedback(t, packet.Feedback{RouterID: 1, Epoch: e, Loss: 0.7, Valid: true})
	}
	waitAccepted(t, s, 10, "router 1's labels")
	if s.Stats().Gamma <= initial {
		t.Fatal("precondition: gamma did not adapt upward")
	}

	// The bottleneck moves: router 2, epoch counter restarted. γ restarts
	// from Initial instead of stepping with a cross-router delta.
	conn.feedback(t, packet.Feedback{RouterID: 2, Epoch: 1, Loss: 0.7, Valid: true})
	waitAccepted(t, s, 11, "the post-change feedback")
	st := s.Stats()
	if st.Gamma != initial {
		t.Fatalf("gamma = %v after router change, want Initial %v", st.Gamma, initial)
	}
	if st.RouterChanges != 1 {
		t.Fatalf("RouterChanges = %d, want 1", st.RouterChanges)
	}

	// Subsequent labels from the new router adapt normally again.
	conn.feedback(t, packet.Feedback{RouterID: 2, Epoch: 2, Loss: 0.7, Valid: true})
	waitAccepted(t, s, 12, "router 2's second label")
	if s.Stats().Gamma <= initial {
		t.Fatal("gamma frozen after reset")
	}
}
