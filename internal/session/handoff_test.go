package session

// Hand-off tests: the driver's and the workers' halves of the chunked
// wheel→worker hand-off, run on the test's own goroutine on a synthetic
// clock so pump order is a deterministic function of the wheel, plus one
// live test that arms sessions against a wheel fast enough to fire them
// while admit is still returning.

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/wire"
)

// fakeClock is a synthetic Clock: Now is whatever the test last set, and
// Sleep advances it instead of blocking.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.advance(d)
	return ctx.Err()
}

func (c *fakeClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// ctlConn is a server socket nobody sends to: it records the control
// datagrams the server writes.
type ctlConn struct {
	mu  sync.Mutex
	ctl []wire.Header
}

func (c *ctlConn) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (c *ctlConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	c.mu.Lock()
	c.ctl = append(c.ctl, h)
	c.mu.Unlock()
	return len(b), nil
}
func (c *ctlConn) Close() error                     { return nil }
func (c *ctlConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (c *ctlConn) SetDeadline(time.Time) error      { return nil }
func (c *ctlConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ctlConn) SetWriteDeadline(time.Time) error { return nil }

// flowLog is an Out that records the flow of every data datagram, in the
// order the sessions wrote them.
type flowLog struct {
	mu    sync.Mutex
	flows []uint32
}

func (w *flowLog) WriteTo(b []byte, _ net.Addr) (int, error) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	w.mu.Lock()
	w.flows = append(w.flows, h.Flow)
	w.mu.Unlock()
	return len(b), nil
}

// take returns the flows written since the last call with consecutive
// repeats folded: one entry per pump, since a pump writes its datagrams
// back to back.
func (w *flowLog) take() []uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := slices.Compact(slices.Clone(w.flows))
	w.flows = w.flows[:0]
	return out
}

// discard is an Out that drops everything without allocating.
type discard struct{}

func (discard) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }

// handServer builds a server that is never Run: the test plays driver and
// worker through step. Every session's bucket holds one datagram, so a
// pump sends one and waits.
func handServer(t *testing.T, out wire.PacketWriter, mut func(*ServerConfig)) (*Server, *fakeClock, *ctlConn) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(5000, 0)}
	conn := &ctlConn{}
	cfg := ServerConfig{
		Conn:        conn,
		Out:         out,
		Clock:       clk,
		IdleTimeout: -1,
		Session: Config{
			Frame:      fgs.FrameSpec{PacketSize: 100, TotalPackets: 8, GreenPackets: 1},
			BurstBytes: 100,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk, conn
}

var handPeer = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000}

// fillLane stuffs the admission lane with ownerless timers nobody pumps, so
// every admit that follows takes the wheel fallback.
func fillLane(s *Server) {
	for len(s.admits) < cap(s.admits) {
		s.admits <- &Timer{}
	}
}

// admitArmed admits flow with the lane full, so its timer is armed on the
// wheel at now: the hand-off tests seed the wheel, not the lane.
func admitArmed(s *Server, flow uint32, now time.Time) {
	s.laneFull(s.admit(origin{addr: handPeer}, flow, now), now)
}

// pumpQueued plays the workers: it pumps every chunk the driver queued.
func pumpQueued(s *Server) {
	for len(s.jobs) > 0 {
		s.runChunk(<-s.jobs, testScratch)
	}
}

// wheelLaps is how many ticks n laps of s's wheel take.
func wheelLaps(s *Server, n int) int { return n * int(wheelHorizon/s.cfg.wheelTick) }

// testScratch is the one worker's scratch of the tests that play the worker
// on their own goroutine.
var testScratch = newScratch()

// step is one driver loop and the workers' answer to it: tick the core a
// wheelTick later, hand the fired timers off, pump every chunk. It returns
// the flows fired, in wheel order.
func step(t *testing.T, s *Server, clk *fakeClock, fired *[]*Timer) []uint32 {
	t.Helper()
	now := clk.advance(s.cfg.wheelTick)
	*fired = s.tick(now, 0, s.backlog(), (*fired)[:0]).fired
	order := make([]uint32, len(*fired))
	for i, tm := range *fired {
		order[i] = tm.Owner.key.Flow
	}
	if !s.handOff(context.Background(), *fired) {
		t.Fatal("handOff gave up under a live context")
	}
	pumpQueued(s)
	return order
}

// TestHandOffPumpOrderIsWheelOrder: a tick that fits one chunk is pumped
// in exactly the order the wheel fired it, tick after tick, while the
// sessions' differing rates keep reshuffling who shares a slot.
func TestHandOffPumpOrderIsWheelOrder(t *testing.T) {
	out := &flowLog{}
	s, clk, _ := handServer(t, out, func(cfg *ServerConfig) {
		cfg.Tune = func(k Key, c *Config) {
			// 100-byte datagrams every 2–8.3 ms.
			c.MKC.InitialRate = units.BitRate(96+int64(k.Flow%7)*50) * units.Kbps
		}
	})
	const n = 300
	for i := 0; i < n; i++ {
		admitArmed(s, uint32((i*113)%n+1), clk.Now()) // admit order ≠ flow order
	}
	var fired []*Timer
	pumps := 0
	for tick := 0; tick < 64; tick++ {
		want := step(t, s, clk, &fired)
		if len(want) > pumpChunk {
			t.Fatalf("tick %d fired %d sessions; the test wants one chunk", tick, len(want))
		}
		if got := out.take(); !slices.Equal(got, want) {
			t.Fatalf("tick %d: pump order %v, wheel order %v", tick, got, want)
		}
		pumps += len(want)
	}
	if pumps < 4*n {
		t.Fatalf("only %d pumps over 64 ticks of %d sessions; the rates did not spread the wheel", pumps, n)
	}
	if got := s.wheel.Len(); got != n {
		t.Fatalf("wheel holds %d timers, want %d", got, n)
	}
}

// TestHandOffSplitsLargeTick: a tick of 2·pumpChunk+1 sessions goes out as
// three chunks, and every session is pumped and re-armed exactly once.
func TestHandOffSplitsLargeTick(t *testing.T) {
	const n = 2*pumpChunk + 1
	out := &flowLog{}
	s, clk, _ := handServer(t, out, func(cfg *ServerConfig) {
		cfg.MaxSessions = n
		cfg.Overload.Capacity = 1000 * units.Mbps
	})
	for f := uint32(1); f <= n; f++ {
		admitArmed(s, f, clk.Now())
	}
	now := clk.advance(s.cfg.wheelTick)
	fired := s.wheel.Advance(now, nil)
	if len(fired) != n {
		t.Fatalf("the tick fired %d sessions, want %d", len(fired), n)
	}
	if !s.handOff(context.Background(), fired) {
		t.Fatal("handOff gave up under a live context")
	}
	if got := len(s.jobs); got != 3 {
		t.Fatalf("%d chunks queued, want 3", got)
	}
	if got, want := s.backlog(), 3/float64(cap(s.free)); got != want {
		t.Fatalf("Backlog %v with 3 of %d buffers in flight, want %v", got, cap(s.free), want)
	}
	var sizes []int
	for len(s.jobs) > 0 {
		chunk := <-s.jobs
		sizes = append(sizes, len(chunk))
		s.runChunk(chunk, testScratch) // a second arming of any timer panics here
	}
	if !slices.Equal(sizes, []int{pumpChunk, pumpChunk, 1}) {
		t.Fatalf("chunk sizes %v", sizes)
	}
	got := out.take()
	if len(got) != n {
		t.Fatalf("%d pumps for %d sessions", len(got), n)
	}
	for i, f := range got {
		if f != uint32(i+1) {
			t.Fatalf("pump %d was flow %d: not wheel order across chunks", i, f)
		}
	}
	if got := s.wheel.Len(); got != n {
		t.Fatalf("wheel holds %d timers after the tick, want %d", got, n)
	}
	if len(s.free) != cap(s.free) {
		t.Fatalf("%d of %d buffers came back", len(s.free), cap(s.free))
	}
}

// TestHandOffFinishMidChunk: a session that completes in the middle of a
// chunk is not re-armed, leaves the table, and is told Close(complete)
// once; its neighbours in the chunk go on.
func TestHandOffFinishMidChunk(t *testing.T) {
	out := &flowLog{}
	s, clk, conn := handServer(t, out, func(cfg *ServerConfig) {
		cfg.Tune = func(k Key, c *Config) {
			if k.Flow == 2 {
				c.MaxFrames = 1
			}
		}
	})
	for f := uint32(1); f <= 3; f++ {
		admitArmed(s, f, clk.Now())
	}
	var fired []*Timer
	for tick := 0; s.Stats().Completed == 0; tick++ {
		if tick > 1000 {
			t.Fatal("flow 2 never completed its one frame")
		}
		if order := step(t, s, clk, &fired); slices.Contains(order, 2) && !slices.Equal(order, []uint32{1, 2, 3}) {
			t.Fatalf("flow 2 fired in %v, not between its neighbours", order)
		}
	}
	out.take()
	for tick := 0; tick < 200; tick++ {
		step(t, s, clk, &fired)
	}
	after := out.take()
	if slices.Contains(after, 2) {
		t.Fatal("the completed session was pumped again")
	}
	if !slices.Contains(after, 1) || !slices.Contains(after, 3) {
		t.Fatalf("the neighbours stopped streaming: %v", after)
	}
	if got := s.wheel.Len(); got != 2 {
		t.Fatalf("wheel holds %d timers, want 2", got)
	}
	if st := s.Stats(); st.Active != 2 || st.Completed != 1 {
		t.Fatalf("active=%d completed=%d, want 2/1", st.Active, st.Completed)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.ctl) != 1 || conn.ctl[0].Type != wire.TypeClose || conn.ctl[0].Flow != 2 || conn.ctl[0].Reason() != wire.ReasonComplete {
		t.Fatalf("control datagrams %+v, want one Close(complete) for flow 2", conn.ctl)
	}
}

// TestStaleTimerDoesNotEvictReadmittedKey: a reaped session's timer is
// still on the wheel when its receiver re-hellos under the same (addr,
// flow). When the stale timer fires, the old session finishes — and must
// leave the new one, which now owns the key, in the table and streaming.
func TestStaleTimerDoesNotEvictReadmittedKey(t *testing.T) {
	out := &flowLog{}
	s, clk, conn := handServer(t, out, nil)
	key := Key{Addr: handPeer.String(), Flow: 1}
	admitArmed(s, 1, clk.Now())
	old := s.table.Get(key)
	if n := s.table.Reap(clk.Now(), 0, nil); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	admitArmed(s, 1, clk.Now())
	fresh := s.table.Get(key)
	if fresh == nil || fresh == old {
		t.Fatal("the key was not re-admitted as a new session")
	}
	if got := s.wheel.Len(); got != 2 {
		t.Fatalf("wheel holds %d timers, want the stale one and the new one", got)
	}
	var fired []*Timer
	for tick := 0; s.wheel.Len() == 2; tick++ {
		if tick > 1000 {
			t.Fatal("the stale timer never fired")
		}
		step(t, s, clk, &fired)
	}
	if got := s.table.Get(key); got != fresh {
		t.Fatalf("after the stale fire the key maps to %p, want the re-admitted session %p", got, fresh)
	}
	out.take()
	for tick := 0; tick < 200; tick++ {
		step(t, s, clk, &fired)
	}
	if !slices.Contains(out.take(), 1) {
		t.Fatal("the re-admitted session stopped streaming")
	}
	if st := s.Stats(); st.Active != 1 || st.Completed != 0 {
		t.Fatalf("active=%d completed=%d, want 1/0", st.Active, st.Completed)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.ctl) != 0 {
		t.Fatalf("control datagrams %+v, want none: the reap passed no callback and nobody else closed", conn.ctl)
	}
}

// TestHandOffCycleDoesNotAllocate: one steady-state advance → hand-off →
// pump → RescheduleBatch → buffer-return cycle allocates nothing.
func TestHandOffCycleDoesNotAllocate(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.Obs = obs.NewRegistry()
		// A 100-byte datagram every 8 ms, which is a whole number of ticks:
		// the sessions wake in lockstep in every eighth slot.
		cfg.Session.MKC = cc.DefaultMKCConfig()
		cfg.Session.MKC.InitialRate = 100 * units.Kbps
	})
	for f := uint32(1); f <= 64; f++ {
		admitArmed(s, f, clk.Now())
	}
	ctx := context.Background()
	var fired []*Timer
	pumped := 0
	cycle := func() {
		now := clk.advance(s.cfg.wheelTick)
		fired = s.wheel.Advance(now, fired[:0])
		pumped += len(fired)
		s.handOff(ctx, fired)
		pumpQueued(s)
	}
	// Two laps of the wheel bring the slots, the driver's slice and the
	// chunk buffers to the capacity they keep.
	for i := 0; i < wheelLaps(s, 2); i++ {
		cycle()
	}
	pumped = 0
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a hand-off cycle allocates %v times", allocs)
	}
	if pumped == 0 {
		t.Fatal("the measured cycles pumped nothing")
	}
}

// TestLiveAdmitArmsLast is the regression test for the admit race: with a
// 50 µs tick a session's first wake overlaps the end of its own admit, so
// anything admit still wrote after arming the timer raced the worker. Run
// with -race; every admitted session must stream.
func TestLiveAdmitArmsLast(t *testing.T) {
	const n = 300
	out := &flowLog{}
	srv, addr, cancel, errCh := startLiveServer(t, 8*units.Mbps, 25*time.Millisecond, func(cfg *ServerConfig) {
		cfg.wheelTick = 50 * time.Microsecond
		cfg.Out = out
	})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })

	streaming := map[uint32]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(streaming) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d admitted sessions streamed", len(streaming), n)
		}
		// A duplicate hello only touches its session, so asking again
		// covers a hello the socket buffer dropped.
		for f := uint32(1); f <= n; f++ {
			if !streaming[f] {
				sendHello(t, conn, addr, f)
			}
		}
		time.Sleep(20 * time.Millisecond)
		out.mu.Lock()
		for _, f := range out.flows {
			streaming[f] = true
		}
		out.flows = out.flows[:0]
		out.mu.Unlock()
	}
	if got := srv.Stats().Admitted; got != n {
		t.Errorf("admitted %d sessions, want %d", got, n)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
}
