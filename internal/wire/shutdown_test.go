package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestSwarmRunReportsClosedConn: a closed socket under a live context
// must surface at once as an error wrapping net.ErrClosed — the read
// loop must not turn it into a clean nil return, and Run must not hold
// it until the context ends.
func TestSwarmRunReportsClosedConn(t *testing.T) {
	emu := NewEmulator(EmulatorConfig{})
	defer emu.Close()
	s, err := NewSwarm(SwarmConfig{
		Server:    emu.A().LocalAddr(),
		Receivers: 1,
		Listen:    func() (net.PacketConn, error) { return emu.B(), nil },
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	_ = emu.B().Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Run(ctx); !errors.Is(err, net.ErrClosed) || ctx.Err() != nil {
		t.Fatalf("Run on a closed conn: got %v with ctx error %v, want net.ErrClosed while ctx is live", err, ctx.Err())
	}
}

// TestSwarmRunEnds: Run returns once its one receiver has ended, with why
// — nil after Close(complete), a *RejectError after a bad-config Reject,
// ErrHelloTimeout once the hello budget is spent — and well before its
// context would end it.
func TestSwarmRunEnds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply Header // the server's answer to each hello; zero: silence
		check func(error) bool
	}{
		{"complete", ControlHeader(TypeClose, 1, ReasonComplete, 0, 0),
			func(err error) bool { return err == nil }},
		{"bad-config", ControlHeader(TypeReject, 1, ReasonBadConfig, 0, 0),
			func(err error) bool {
				var rej *RejectError
				return errors.As(err, &rej) && rej.Reason == ReasonBadConfig
			}},
		{"hello-budget", Header{},
			func(err error) bool { return errors.Is(err, ErrHelloTimeout) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emu := NewEmulator(EmulatorConfig{})
			defer emu.Close()
			s, err := NewSwarm(SwarmConfig{
				Server:        emu.A().LocalAddr(),
				Receivers:     1,
				HelloRetry:    10 * time.Millisecond,
				HelloAttempts: 3,
				Listen:        func() (net.PacketConn, error) { return emu.B(), nil },
			}, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if tc.reply.Type != 0 {
				reply, err := EncodeDatagram(tc.reply, nil)
				if err != nil {
					t.Fatal(err)
				}
				go serveHellos(emu.A(), reply)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Run(ctx); !tc.check(err) || ctx.Err() != nil {
				t.Fatalf("Run returned %v with ctx error %v", err, ctx.Err())
			}
		})
	}
}

// serveHellos answers every hello read on conn with reply, until conn
// closes.
func serveHellos(conn net.PacketConn, reply []byte) {
	buf := make([]byte, MaxDatagram)
	for {
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		if h, _, err := DecodeDatagram(buf[:n]); err == nil && h.Type == TypeHello {
			_, _ = conn.WriteTo(reply, from)
		}
	}
}
