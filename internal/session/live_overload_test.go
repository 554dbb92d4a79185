package session

// Live control-plane tests: Reject reasons on the wire, Shutdown racing
// a hello storm, and draining mid-pump. Same real-socket style as
// live_test.go.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// sendHello fires one hello datagram for flow at addr.
func sendHello(t *testing.T, conn net.PacketConn, addr net.Addr, flow uint32) {
	t.Helper()
	if _, err := conn.WriteTo(helloDatagram(t, flow), addr); err != nil {
		t.Fatal(err)
	}
}

// helloDatagram encodes one hello for flow.
func helloDatagram(t *testing.T, flow uint32) []byte {
	t.Helper()
	b, err := wire.EncodeDatagram(wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: flow}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// awaitType reads conn until a datagram of type want for flow arrives
// (other traffic — data, stale controls — is skipped) or the deadline
// passes.
func awaitType(t *testing.T, conn net.PacketConn, want wire.Type, flow uint32, timeout time.Duration) wire.Header {
	t.Helper()
	buf := make([]byte, wire.MaxDatagram+1)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_ = conn.SetReadDeadline(deadline)
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			break
		}
		h, _, err := wire.DecodeDatagram(buf[:n])
		if err != nil || h.Flow != flow {
			continue
		}
		if h.Type == want {
			return h
		}
	}
	t.Fatalf("no %v datagram for flow %d within %v", want, flow, timeout)
	return wire.Header{}
}

// TestLiveRejectReasons drives all three admission refusals end to end
// and checks each one is spoken on the wire with the right reason and
// retry-after, counted per reason in ServerStats, and exported per
// reason through the obs registry (the /debug/vars view).
func TestLiveRejectReasons(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback test (seconds of wall clock)")
	}
	var reg *obs.Registry
	srv, addr, cancel, errCh := startLiveServer(t, 4*units.Mbps, 25*time.Millisecond, func(cfg *ServerConfig) {
		reg = cfg.Obs
		cfg.MaxSessions = 1
		cfg.RejectRetryAfter = 250 * time.Millisecond
		cfg.Tune = func(k Key, c *Config) {
			if k.Flow == 99 {
				c.Layers = 1 // invalid: layers must be 0 or >= 2
			}
		}
	})

	dial := func() net.PacketConn {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}

	// Flow 99 trips Tune validation while the table still has room
	// (admission checks capacity before config): Reject(bad-config), no
	// retry hint — retrying an invalid config cannot succeed.
	c3 := dial()
	sendHello(t, c3, addr, 99)
	h := awaitType(t, c3, wire.TypeReject, 99, 2*time.Second)
	if h.Reason() != wire.ReasonBadConfig || h.RetryAfter() != 0 {
		t.Errorf("config reject: reason %v retry %v, want bad-config/0", h.Reason(), h.RetryAfter())
	}

	// Flow 1 takes the only slot.
	c1 := dial()
	sendHello(t, c1, addr, 1)
	awaitType(t, c1, wire.TypeData, 1, 2*time.Second)

	// Flow 2 finds the table full: Reject(server-full) with the
	// configured retry-after hint.
	c2 := dial()
	sendHello(t, c2, addr, 2)
	h = awaitType(t, c2, wire.TypeReject, 2, 2*time.Second)
	if h.Reason() != wire.ReasonServerFull || h.RetryAfter() != 250*time.Millisecond {
		t.Errorf("full reject: reason %v retry %v, want server-full/250ms", h.Reason(), h.RetryAfter())
	}

	// Shutdown drains flow 1 and refuses newcomers with Reject(draining).
	shutErr := make(chan error, 1)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	go func() { shutErr <- srv.Shutdown(shutCtx) }()
	c4 := dial()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().RejectedDrain == 0 && time.Now().Before(deadline) {
		sendHello(t, c4, addr, 3)
		time.Sleep(20 * time.Millisecond)
	}
	// A hello that beats Shutdown's draining flag finds the table full and
	// is told so; those answers come first and are skipped (the loop above
	// sent a bounded number of hellos, and awaitType fails on silence).
	h = awaitType(t, c4, wire.TypeReject, 3, 2*time.Second)
	for h.Reason() == wire.ReasonServerFull {
		h = awaitType(t, c4, wire.TypeReject, 3, 2*time.Second)
	}
	if h.Reason() != wire.ReasonDraining {
		t.Errorf("drain reject: reason %v, want draining", h.Reason())
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	st := srv.Stats()
	if st.RejectedFull == 0 || st.RejectedConfig != 1 || st.RejectedDrain == 0 {
		t.Errorf("per-reason counters full=%d config=%d drain=%d, want >0/1/>0",
			st.RejectedFull, st.RejectedConfig, st.RejectedDrain)
	}
	if st.Rejected != st.RejectedFull+st.RejectedConfig+st.RejectedDrain {
		t.Errorf("rejected %d != full %d + config %d + drain %d",
			st.Rejected, st.RejectedFull, st.RejectedConfig, st.RejectedDrain)
	}

	// The same per-reason split is exported for /debug/vars.
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"session.rejected_full":     float64(st.RejectedFull),
		"session.rejected_config":   float64(st.RejectedConfig),
		"session.rejected_draining": float64(st.RejectedDrain),
		"session.rejected":          float64(st.Rejected),
	} {
		if got, ok := snap[name]; !ok || got != want {
			t.Errorf("obs %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestLiveShutdownRacesHellos blasts hellos from many goroutines while
// Shutdown runs concurrently: every admitted session must still drain
// (no session may slip past the drain sweep and stall Shutdown), and the
// books must balance afterwards. Run with -race.
func TestLiveShutdownRacesHellos(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback test (seconds of wall clock)")
	}
	srv, addr, cancel, errCh := startLiveServer(t, 8*units.Mbps, 25*time.Millisecond, func(cfg *ServerConfig) {
		cfg.MaxSessions = 64
		cfg.RejectRetryAfter = 100 * time.Millisecond
	})

	const senders = 4
	const flowsPer = 8
	stopStorm := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		wg.Add(1)
		go func(conn net.PacketConn, base uint32) {
			defer wg.Done()
			b, err := wire.EncodeDatagram(wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: base}, nil)
			if err != nil {
				panic(err)
			}
			for {
				select {
				case <-stopStorm:
					return
				default:
				}
				for f := uint32(0); f < flowsPer; f++ {
					h := wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: base + f}
					if b, err = wire.AppendDatagram(b[:0], h, nil); err != nil {
						panic(err)
					}
					_, _ = conn.WriteTo(b, addr)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(conn, uint32(1+i*flowsPer))
	}

	// Let the storm admit a first wave, then drain under fire.
	time.Sleep(300 * time.Millisecond)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown under hello storm: %v", err)
	}
	// Shutdown can return between two storm rounds; keep the storm firing
	// at the still-running (drained, draining) server until at least one
	// hello is refused with Reject(draining).
	for deadline := time.Now().Add(2 * time.Second); srv.Stats().RejectedDrain == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(stopStorm)
	wg.Wait()
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	st := srv.Stats()
	if st.Active != 0 {
		t.Errorf("%d sessions alive after Shutdown returned", st.Active)
	}
	if st.Admitted == 0 {
		t.Error("storm admitted nothing; test exercised no race")
	}
	if st.Admitted != st.Completed+st.Reaped+st.ReapedStuck {
		t.Errorf("books don't balance: admitted %d != completed %d + reaped %d + stuck %d",
			st.Admitted, st.Completed, st.Reaped, st.ReapedStuck)
	}
	if st.RejectedDrain == 0 {
		t.Error("no hello was refused while draining — storm ended too early to race Shutdown")
	}
}

// TestLiveDrainWhilePump drains a server whose only session is actively
// pumping: the receiver must see the stream end with Close(draining) at
// a frame boundary rather than go silent.
func TestLiveDrainWhilePump(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback test (seconds of wall clock)")
	}
	srv, addr, cancel, errCh := startLiveServer(t, 4*units.Mbps, 25*time.Millisecond, nil)

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	sendHello(t, conn, addr, 5)
	awaitType(t, conn, wire.TypeData, 5, 2*time.Second)

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	shutErr := make(chan error, 1)
	go func() { shutErr <- srv.Shutdown(shutCtx) }()

	h := awaitType(t, conn, wire.TypeClose, 5, 5*time.Second)
	if h.Reason() != wire.ReasonDraining {
		t.Errorf("close reason %v, want draining", h.Reason())
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	st := srv.Stats()
	if st.Completed != 1 || st.Active != 0 {
		t.Errorf("completed=%d active=%d after drain, want 1/0", st.Completed, st.Active)
	}
}
