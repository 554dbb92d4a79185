package session

// Pump tests: what a session puts on the wire now that it charges the bucket
// first and encodes at the write, into a scratch it does not own, and what
// the server's counters say once the tally is flushed per chunk.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestPumpScriptedSequence drives one session over three frames on a scripted
// clock, raising the shed level and then draining the session while a
// datagram sits charged but unwritten. The (colour, frame, index, seq)
// sequence is the one the encode-then-charge pump of PR 18 emitted for the
// same script — a charged datagram is sent whatever the shed level has become,
// and its sequence number is the next of its colour — and every header's
// Timestamp is the instant of the wake that wrote it.
func TestPumpScriptedSequence(t *testing.T) {
	t0 := time.Unix(1000, 0)
	out := &captureWriter{}
	// 240 kb/s × 20 ms = 600 B: six 100-byte packets a frame, one green and,
	// at γ = 0.5, two yellow and three red. The bucket holds two datagrams.
	s := newTestSession(t, Config{
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 16, GreenPackets: 1},
		FrameInterval: 20 * time.Millisecond,
		MKC:           cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 240 * units.Kbps, MinRate: 16 * units.Kbps, DedupEpochs: true},
		BurstBytes:    200,
	}, out, t0)
	var lvl atomic.Int32
	s.setShedLevel(&lvl)

	// between[n] runs after wake n (the first is 0) has returned; each lands
	// behind a datagram that is charged and not yet written.
	between := map[int]func(){
		2: func() { lvl.Store(1) }, // frame 0's index 4, a red, is charged: it still goes, index 5 is shed
		6: func() { lvl.Store(0) }, // frame 2's index 2 is charged; all of frame 1's red was shed, frame 2's is sent
		9: func() { s.Drain() },    // frame 2's last packet is charged: it is written, then the session closes
	}
	w := newScratch()
	now := t0
	var wroteAt []time.Time // by datagram: the instant of the wake that wrote it
	for wake := 0; ; wake++ {
		if wake > 100 {
			t.Fatal("the drained session never closed")
		}
		next, done := s.pump(now, w)
		for len(wroteAt) < len(out.headers) {
			wroteAt = append(wroteAt, now)
		}
		if done {
			break
		}
		if f := between[wake]; f != nil {
			if !s.reserved {
				t.Fatalf("wake %d left nothing charged for the script to land behind", wake)
			}
			f()
		}
		now = s.origin.Add(next)
	}

	type id struct {
		color packet.Color
		frame uint32
		index uint16
		seq   uint64
	}
	want := []id{
		{packet.Green, 0, 0, 0},
		{packet.Yellow, 0, 1, 0},
		{packet.Yellow, 0, 2, 1},
		{packet.Red, 0, 3, 0},
		{packet.Red, 0, 4, 1},
		{packet.Green, 1, 0, 1},
		{packet.Yellow, 1, 1, 2},
		{packet.Yellow, 1, 2, 3},
		{packet.Green, 2, 0, 2},
		{packet.Yellow, 2, 1, 4},
		{packet.Yellow, 2, 2, 5},
		{packet.Red, 2, 3, 2},
		{packet.Red, 2, 4, 3},
		{packet.Red, 2, 5, 4},
	}
	for i, g := range out.headers {
		if got := (id{g.Color, g.Frame, g.Index, g.Seq}); i < len(want) && got != want[i] {
			t.Errorf("datagram %d is %+v, want %+v", i, got, want[i])
		}
		if g.Timestamp != wroteAt[i].UnixNano() {
			t.Errorf("datagram %d stamped %d, written by the wake at %d", i, g.Timestamp, wroteAt[i].UnixNano())
		}
	}
	if len(out.headers) != len(want) {
		t.Errorf("%d datagrams, want %d", len(out.headers), len(want))
	}
	if st := s.Stats(); st.State != StateClosed || st.CloseReason != wire.ReasonDraining || st.Frames != 3 {
		t.Errorf("ended %v (%v) after %d frames, want closed (draining) after 3", st.State, st.CloseReason, st.Frames)
	}
	if w.datagrams != uint64(len(out.headers)) || w.bytes != 100*w.datagrams || w.shed != s.Stats().Shed || w.shed == 0 {
		t.Errorf("tally %d datagrams, %d bytes, %d shed; wire saw %d, session shed %d",
			w.datagrams, w.bytes, w.shed, len(out.headers), s.Stats().Shed)
	}
}

// TestPumpFiveLayers drives a 5-layer session through three frames on a
// scripted clock, once per shed level. At γ = 0.5 a frame of 1100 B is
// eleven 100-byte packets, split [1 2 1 2 5] over the layers by the ladder.
// Every datagram travels its layer's color (packet.LayerColor); each
// color's sequence numbers run contiguously from 0, since a shed packet
// consumes none; and shed level k sends exactly the bottom 5−k layers of
// every frame, never fewer than the base.
func TestPumpFiveLayers(t *testing.T) {
	counts := []int{1, 2, 1, 2, 5}
	const frames = 3
	for _, lvl := range []int{0, 1, 2, 4, 9} {
		t.Run(fmt.Sprintf("default/shed%d", lvl), func(t *testing.T) {
			t0 := time.Unix(1000, 0)
			out := &captureWriter{}
			s := newTestSession(t, Config{
				Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 16, GreenPackets: 1},
				FrameInterval: 20 * time.Millisecond,
				MKC:           cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 440 * units.Kbps, MinRate: 16 * units.Kbps, DedupEpochs: true},
				RedShare:      fgs.RedShareEnhancement,
				Layers:        5,
				BurstBytes:    200,
				MaxFrames:     frames,
			}, out, t0)
			var shed atomic.Int32
			shed.Store(int32(lvl))
			s.setShedLevel(&shed)
			drive(t, s, t0, 1000)

			// The layer of each index of a frame, and how many of the
			// frame's packets the level leaves.
			var layerOf []int
			for l, c := range counts {
				for range c {
					layerOf = append(layerOf, l)
				}
			}
			sent := 0
			for _, c := range counts[:max(len(counts)-lvl, 1)] {
				sent += c
			}
			if len(out.headers) != frames*sent {
				t.Fatalf("%d datagrams, want %d a frame for %d frames", len(out.headers), sent, frames)
			}
			next := map[packet.Color]uint64{}
			for i, h := range out.headers {
				frame, idx := i/sent, i%sent
				if int(h.Frame) != frame || int(h.Index) != idx {
					t.Fatalf("datagram %d is frame %d index %d, want frame %d index %d", i, h.Frame, h.Index, frame, idx)
				}
				if want := packet.LayerColor(layerOf[idx]); h.Color != want {
					t.Errorf("datagram %d (layer %d) travels %v, want %v", i, layerOf[idx], h.Color, want)
				}
				if h.Seq != next[h.Color] {
					t.Errorf("datagram %d: %v sequence %d, want %d", i, h.Color, h.Seq, next[h.Color])
				}
				next[h.Color]++
			}
			if st := s.Stats(); st.Frames != frames || st.Shed != uint64(frames*(len(layerOf)-sent)) {
				t.Errorf("%d frames, %d shed; want %d frames, %d shed", st.Frames, st.Shed, frames, frames*(len(layerOf)-sent))
			}
		})
	}
}

// rawWriter records every datagram written, byte for byte.
type rawWriter struct{ dgs [][]byte }

func (w *rawWriter) WriteTo(b []byte, _ net.Addr) (int, error) {
	w.dgs = append(w.dgs, bytes.Clone(b))
	return len(b), nil
}

// TestPumpEntriesAgree: the server's pump(now, w) and a single-session
// driver's Pump(at, buf) are one pump. A session and its twin take the same
// script — late wakes, fresh and stale labels, a shed level raised and
// lowered, the stale watchdog — one through each entry, and write the same
// bytes, timestamps included, and return the same deadlines. The twins are
// anchored at a fractional second, and once at a wall-clock reading with a
// monotonic part.
func TestPumpEntriesAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		t0   time.Time
	}{{"unix", time.Unix(1000, 123456789)}, {"monotonic", time.Now()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 16, GreenPackets: 1},
				FrameInterval: 20 * time.Millisecond,
				MKC:           cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 440 * units.Kbps, MinRate: 16 * units.Kbps, DedupEpochs: true},
				Layers:        5,
				BurstBytes:    200,
				MaxFrames:     20,
				StaleTimeout:  50 * time.Millisecond,
			}
			byNow, byAt := &rawWriter{}, &rawWriter{}
			s, twin := newTestSession(t, cfg, byNow, tc.t0), newTestSession(t, cfg, byAt, tc.t0)
			var lvlS, lvlTwin atomic.Int32
			s.setShedLevel(&lvlS)
			twin.setShedLevel(&lvlTwin)
			w, buf := newScratch(), make([]byte, 0, cfg.Frame.PacketSize)

			var at time.Duration
			for wake := 0; ; wake++ {
				if wake > 1000 {
					t.Fatal("the session never completed")
				}
				switch wake {
				case 20, 60:
					lvlS.Store(2)
					lvlTwin.Store(2)
				case 40, 80:
					lvlS.Store(0)
					lvlTwin.Store(0)
				}
				if wake%7 == 3 && wake < 50 { // a label, then its stale repeat
					fb := packet.Feedback{RouterID: 1, Epoch: uint64(wake / 7), Loss: float64(wake%5) / 10, Valid: true}
					for range 2 {
						if a, b := s.HandleFeedback(fb, s.origin.Add(at)), twin.HandleFeedback(fb, twin.origin.Add(at)); a != b {
							t.Fatalf("wake %d: label accepted %v by one, %v by the twin", wake, a, b)
						}
					}
				}
				next, done := s.pump(s.origin.Add(at), w)
				nextAt, doneAt := twin.Pump(at, buf)
				if next != nextAt || done != doneAt {
					t.Fatalf("wake %d at %v: pump returned %v, %v; Pump %v, %v", wake, at, next, done, nextAt, doneAt)
				}
				if done {
					break
				}
				// Every third wake is late, as a loaded wheel's would be.
				at = next + time.Duration(wake%3)*137*time.Microsecond
			}
			if len(byNow.dgs) != len(byAt.dgs) || len(byNow.dgs) < 50 {
				t.Fatalf("%d datagrams through pump, %d through Pump; want equal and at least 50", len(byNow.dgs), len(byAt.dgs))
			}
			for i := range byNow.dgs {
				if !bytes.Equal(byNow.dgs[i], byAt.dgs[i]) {
					t.Fatalf("datagram %d differs:\npump %x\nPump %x", i, byNow.dgs[i], byAt.dgs[i])
				}
			}
			a, b := s.Stats(), twin.Stats()
			if a != b {
				t.Errorf("stats differ: pump %+v, Pump %+v", a, b)
			}
			if a.FeedbackAccepted == 0 || a.Shed == 0 || a.StaleDecays == 0 {
				t.Errorf("the script missed a path: %d labels accepted, %d shed, %d stale decays", a.FeedbackAccepted, a.Shed, a.StaleDecays)
			}
		})
	}
}

// TestPumpFeedbackWhileChunkPumped is for -race: the bucket's only guard is
// the session's own lock, and feedback retargets it (handleDatagram, as
// demux does) while a worker charges it (pumpChunk).
func TestPumpFeedbackWhileChunkPumped(t *testing.T) {
	const n = 64
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.Session.MKC = cc.DefaultMKCConfig()
		cfg.Session.MKC.InitialRate = 800 * units.Kbps  // a datagram a tick
		cfg.Session.StaleTimeout = 5 * time.Millisecond // the watchdog retargets the bucket too
	})
	for f := uint32(1); f <= n; f++ {
		admitArmed(s, f, clk.Now())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // demux
		defer wg.Done()
		buf := make([]byte, 0, wire.HeaderSize)
		for epoch := uint64(1); ; epoch++ {
			select {
			case <-stop:
				return
			default:
			}
			for f := uint32(1); f <= n; f++ {
				h := wire.Header{Type: wire.TypeFeedback, Color: packet.ACK, Flow: f,
					Feedback: packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.01, Valid: true}}
				b, err := wire.AppendDatagram(buf[:0], h, nil)
				if err != nil {
					panic(err)
				}
				s.handleDatagram(b, origin{addr: handPeer}, clk.Now())
			}
			runtime.Gosched() // on one P, take turns with the pump
		}
	}()
	// Driver and worker: at least 400 ticks, and until demux has got 50
	// rounds of labels in between them.
	var fired []*Timer
	for tick := 0; tick < 400 || s.Stats().FeedbackItems < 50*n; tick++ {
		step(t, s, clk, &fired)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Datagrams == 0 || st.FeedbackItems == 0 || st.Active != n {
		t.Fatalf("datagrams=%d feedback=%d active=%d: the two sides did not both run", st.Datagrams, st.FeedbackItems, st.Active)
	}
	var accepted uint64
	for _, ss := range s.SessionStats() {
		accepted += ss.FeedbackAccepted
	}
	if accepted == 0 {
		t.Fatal("no session accepted a label")
	}
}

// TestLiveStatsWithoutRegistry: a server run with Obs nil counts what its
// sessions sent, on a registry of its own. With ExitWhenIdle, Run returning
// means every worker has flushed, so the counters equal what Out was given.
// The control datagrams it wrote to its socket are counted too: a Reject
// for each refused hello and a Close for each session that ended.
func TestLiveStatsWithoutRegistry(t *testing.T) {
	out := &flowLog{}
	srv, addr, _, errCh := startLiveServer(t, 8*units.Mbps, 25*time.Millisecond, func(cfg *ServerConfig) {
		cfg.Obs = nil
		cfg.Out = out
		cfg.ExitWhenIdle = true
		cfg.Session.MaxFrames = 3
		cfg.Session.FrameInterval = 5 * time.Millisecond
		cfg.Tune = func(k Key, c *Config) {
			if k.Flow == 2 {
				c.Layers = 1 // invalid: the hello is rejected
			}
		}
	})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	sendHello(t, conn, addr, 2)
	awaitType(t, conn, wire.TypeReject, 2, 2*time.Second)
	// A hello the socket dropped is sent again; one that lands after the
	// first session completed only adds a session to both sides of the sum.
	retry := time.NewTicker(50 * time.Millisecond)
	defer retry.Stop()
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		sendHello(t, conn, addr, 1)
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("server: %v", err)
			}
			done = true
		case <-retry.C:
		case <-deadline:
			t.Fatal("the three-frame session never completed")
		}
	}
	st, wrote := srv.Stats(), uint64(len(out.flows)) // every worker has returned: out is quiet
	if st.Datagrams == 0 || st.Datagrams != wrote || st.Bytes != 100*wrote {
		t.Fatalf("stats say %d datagrams, %d bytes; Out was given %d of 100 bytes", st.Datagrams, st.Bytes, wrote)
	}
	if st.Rejected == 0 || st.Completed == 0 || st.ControlSent != st.Rejected+st.Completed+st.Reaped {
		t.Fatalf("%d control datagrams sent; want one for each of %d rejects, %d completions and %d reaps",
			st.ControlSent, st.Rejected, st.Completed, st.Reaped)
	}
}

// TestNewSessionAllocations pins what a session costs the heap: the Session
// and its MKC controller. The γ controller and packetizer live inside the
// session's fgs.Sender; the pacer, the datagram buffer and the payload it
// used to own are gone.
func TestNewSessionAllocations(t *testing.T) {
	cfg := Config{}.WithDefaults()
	key := Key{Addr: "127.0.0.1:7777", Flow: 3}
	t0 := time.Unix(1000, 0)
	var s *Session
	allocs := testing.AllocsPerRun(100, func() {
		s, _ = NewSession(key, handPeer, discard{}, cfg, t0)
	})
	if s == nil || allocs > 2 {
		t.Fatalf("NewSession allocates %v times, want at most 2", allocs)
	}
}

// BenchmarkSessionPumpChunk prices a datagram from wheel fire to WriteTo on
// one goroutine — advance, hand-off, pumpChunk — for the two populations the
// end-to-end benchmark runs: one datagram a wake (egress-wide) and four
// (egress-bulk). Diagnostic only; ns/op and allocs/op are per datagram.
//
// Its clock starts from a real reading, as the server's does in
// production: an instant that carries a monotonic clock reading, on which
// time.Time.Sub takes its fast path. (The tests' fakeClock starts at a
// wall-only time.Unix instant, whose Sub takes the slower wall path.)
func BenchmarkSessionPumpChunk(b *testing.B) {
	for _, bc := range []struct {
		name     string
		sessions int
		dgps     int // datagrams per second per session
	}{
		{"4096x1", 4096, 100},
		{"256x4", 256, 4000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clk := &fakeClock{now: time.Now()}
			rate := units.BitRate(bc.dgps * 100 * 8)
			s, err := NewServer(ServerConfig{
				Conn: &ctlConn{}, Out: discard{}, Clock: clk, IdleTimeout: -1, MaxSessions: bc.sessions,
				Obs: obs.NewRegistry(), // as pelsd and bench/ run it
				Session: Config{
					Frame:      fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 1},
					MKC:        cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: rate, MinRate: rate / 2, DedupEpochs: true},
					BurstBytes: 800,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Admitted a tick apart over ten ticks, so every tick has work.
			for f := 0; f < bc.sessions; f++ {
				if f%(bc.sessions/10) == 0 {
					clk.advance(s.cfg.wheelTick)
				}
				admitArmed(s, uint32(f+1), clk.Now())
			}
			ctx := context.Background()
			var fired []*Timer
			cycle := func() {
				fired = s.wheel.Advance(clk.advance(s.cfg.wheelTick), fired[:0])
				s.handOff(ctx, fired)
				pumpQueued(s)
			}
			for i := 0; i < wheelLaps(s, 2); i++ {
				cycle()
			}
			start := s.Stats().Datagrams
			b.ReportAllocs()
			b.ResetTimer()
			for s.Stats().Datagrams-start < uint64(b.N) {
				cycle()
			}
		})
	}
}
