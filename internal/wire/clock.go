package wire

import (
	"context"
	"net"
	"time"
)

// PacketWriter is the write half of net.PacketConn — the only surface a
// paced sender actually needs. ShapedConn, the emulator endpoints, and
// real UDP sockets all satisfy it; internal/session depends on this
// narrow interface so its sessions can share one socket without owning
// its read side.
type PacketWriter interface {
	WriteTo(b []byte, addr net.Addr) (int, error)
}

// SystemClock is the production clock for internal/session: time.Now and
// timer-backed sleeps. It lives here — not in internal/session — because
// the session package sits inside the pelsvet walltime boundary and may
// only consume injected clocks; internal/wire is the layer licensed to
// touch the wall clock.
type SystemClock struct{}

// Now returns time.Now().
func (SystemClock) Now() time.Time { return time.Now() }

// sleepTimers recycles Sleep's timers: the server's driver sleeps once
// per millisecond tick, and a time.Timer is a timer plus its channel.
// Package-level so SystemClock stays a zero-size literal, and a plain free
// list rather than a sync.Pool so reuse is certain (a Pool drops entries
// at every GC, and at random under -race). A pooled timer is stopped and
// its channel empty. Sixteen is more sleepers than a process has at once
// (one driver per Server); any beyond that make a timer of their own.
var sleepTimers = make(chan *time.Timer, 16)

// Sleep blocks for d or until ctx is done, returning ctx.Err() when the
// wait was cut short.
func (SystemClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	var t *time.Timer
	select {
	case t = <-sleepTimers:
		t.Reset(d)
	default:
		t = time.NewTimer(d)
	}
	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
		stopTimer(t)
	case <-t.C:
	}
	select {
	case sleepTimers <- t:
	default:
	}
	return err
}

// stopTimer stops a timer whose wait ended some other way. The module's go
// directive predates 1.23, so a timer that fired meanwhile left its tick in
// the channel; it is drained, or the next Reset would expire at once.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
