package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
)

// ReceiverConfig parameterizes the receiving side.
type ReceiverConfig struct {
	// Peer is the server: hellos and feedback go there. Required.
	Peer net.Addr
	// Flow is the subscribed flow; datagrams of other flows are ignored.
	// Required (non-zero).
	Flow uint32
	// Obs, if non-nil, registers the receiver's counters and per-color
	// delivery gauges under the "receiver." prefix.
	Obs *obs.Registry
	// ProbeIdle arms the liveness probe: after this long without data the
	// receiver re-sends its last label, backing off exponentially to
	// ProbeMax until data resumes. The probes restore the feedback loop
	// after an outage that lost the last real echo, which would otherwise
	// leave sender and receiver deadlocked at minimum rate. 0 disables it.
	ProbeIdle time.Duration
	// ProbeMax caps the probe backoff; 0 selects 8·ProbeIdle.
	ProbeMax time.Duration
	// HelloRetry is the initial hello retransmit interval; 0 selects
	// 200ms. Hellos go out from the start of Run and double, with jitter,
	// up to HelloMax until data arrives.
	HelloRetry time.Duration
	// HelloMax caps the hello backoff; 0 selects 8·HelloRetry.
	HelloMax time.Duration
	// HelloAttempts bounds consecutive unanswered hellos before Run
	// fails with ErrHelloTimeout; 0 means unlimited.
	HelloAttempts int
	// Reconnect keeps the receiver subscribed across a retryable server
	// Close: it archives the stream and re-hellos for a fresh session. Off,
	// every Close ends Run.
	Reconnect bool
}

// Receiver consumes one live PELS stream on one socket: the one-socket
// driver of the receiver core (hello until data flows, count per-color
// loss from sequence gaps, echo every fresh router label back as a
// feedback datagram — the reverse path the simulator models with ACKs).
// The driver adds the read loop, the idle probe, and the frame and
// decode-error counts.
type Receiver struct {
	cfg ReceiverConfig
	out echoWriter

	mu        sync.Mutex
	core      recvCore
	lastData  time.Time     // the probe's idle clock
	lastProbe time.Time     // the last probe's instant
	probeWait time.Duration // the probe's backoff step
}

// NewReceiver builds a receiver on conn. The conn is borrowed, not
// owned.
func NewReceiver(conn net.PacketConn, cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Peer == nil || cfg.Flow == 0 {
		return nil, errors.New("wire: ReceiverConfig.Peer and Flow are required")
	}
	if cfg.ProbeIdle > 0 && cfg.ProbeMax <= 0 {
		cfg.ProbeMax = 8 * cfg.ProbeIdle
	}
	if cfg.HelloRetry <= 0 {
		cfg.HelloRetry = 200 * time.Millisecond
	}
	if cfg.HelloMax <= 0 {
		cfg.HelloMax = 8 * cfg.HelloRetry
	}
	pol := &helloPolicy{retry: cfg.HelloRetry, max: cfg.HelloMax, attempts: cfg.HelloAttempts, reconnect: cfg.Reconnect}
	r := &Receiver{
		cfg:       cfg,
		out:       echoWriter{conn: conn, to: cfg.Peer},
		core:      newRecvCore(pol, cfg.Flow, 1, time.Time{}),
		probeWait: cfg.ProbeIdle,
	}
	if cfg.Obs != nil {
		r.instrument(cfg.Obs)
	}
	return r, nil
}

// instrument registers the receiver's gauges, each read from a snapshot.
func (r *Receiver) instrument(reg *obs.Registry) {
	gauge := func(name string, read func(st ReceiverStats) uint64) {
		reg.GaugeFunc("receiver."+name, func() float64 { return float64(read(r.Stats())) })
	}
	gauge("datagrams", func(st ReceiverStats) uint64 { return st.Datagrams })
	gauge("bytes", func(st ReceiverStats) uint64 { return st.Bytes })
	gauge("epochs", func(st ReceiverStats) uint64 { return st.Epochs })
	gauge("feedback_sent", func(st ReceiverStats) uint64 { return st.FeedbackSent })
	gauge("decode_errors", func(st ReceiverStats) uint64 { return st.DecodeErrors })
	gauge("probes", func(st ReceiverStats) uint64 { return st.Probes })
	for _, col := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		name := strings.ToLower(col.String())
		gauge(name+".received", func(st ReceiverStats) uint64 { return st.Colors[col].Received })
		gauge(name+".lost", func(st ReceiverStats) uint64 { return st.Colors[col].Lost })
	}
}

// Run reads the stream until ctx is canceled or the receiver ends. It
// returns nil on a graceful end (a Close that does not reconnect),
// ctx.Err() on cancellation, a *RejectError when the server refused the
// flow for good, and ErrHelloTimeout when HelloAttempts hellos went
// unanswered. Malformed datagrams are counted and dropped; socket errors
// other than deadline expiry are returned.
func (r *Receiver) Run(ctx context.Context) error {
	return readLoop(ctx, r.out.conn, r.Handle, func(now time.Time) (bool, error) {
		_ = r.maybeHello(now) // an error ends the receiver; terminal reports it
		r.maybeProbe(now)
		return r.terminal()
	})
}

// terminal reports whether the receiver has ended, and why.
func (r *Receiver) terminal() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.done, r.core.err
}

// maybeHello sends the hello due at now, if one is. It returns the error
// that ended the receiver, if one did.
func (r *Receiver) maybeHello(now time.Time) error {
	r.mu.Lock()
	h, send := r.core.hello(now)
	err := r.core.err
	r.mu.Unlock()
	if send {
		r.out.send(h)
	}
	return err
}

// maybeProbe re-echoes the last feedback label when the stream has gone
// idle, with bounded exponential backoff.
func (r *Receiver) maybeProbe(now time.Time) {
	if r.cfg.ProbeIdle <= 0 {
		return
	}
	r.mu.Lock()
	fb := r.core.st.LastFeedback
	if r.core.done || !fb.Valid || now.Sub(r.lastData) < r.probeWait || now.Sub(r.lastProbe) < r.probeWait {
		r.mu.Unlock()
		return
	}
	r.lastProbe = now
	r.probeWait = min(2*r.probeWait, r.cfg.ProbeMax)
	echo := r.core.echo(fb, now)
	r.core.st.Probes++
	r.mu.Unlock()
	r.out.send(echo)
}

// Handle applies one raw datagram read at now (exported so tests drive
// the receiver without a socket). Datagrams of other flows are ignored;
// one that does not decode only counts a decode error.
func (r *Receiver) Handle(b []byte, now time.Time) {
	h, _, err := DecodeDatagram(b)
	if err == nil && h.Flow != r.cfg.Flow {
		return
	}
	var echo Header
	var send bool
	r.mu.Lock()
	switch {
	case err != nil:
		r.core.st.DecodeErrors++
	case h.Type == TypeData:
		r.core.st.Frames = max(r.core.st.Frames, uint64(h.Frame)+1)
		r.lastData, r.probeWait = now, r.cfg.ProbeIdle // data resumed: rearm the probe
		echo, send = r.core.onData(h, len(b), now)
	case h.Type == TypeReject, h.Type == TypeClose:
		r.core.onControl(h, now)
	}
	r.mu.Unlock()
	if send {
		r.out.send(echo)
	}
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.snapshot()
}

// echoWriter is a driver's write path to the server: the lock serializes
// encode and write so one buffer serves every datagram. Encode and write
// errors are dropped like the rest of the datagram path: feedback is
// redundant by design (paper §5.2), and a lost hello is retried.
type echoWriter struct {
	conn net.PacketConn
	to   net.Addr

	mu  sync.Mutex
	buf []byte
}

// send encodes h and writes it to the server.
func (w *echoWriter) send(h Header) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, err := AppendDatagram(w.buf[:0], h, nil)
	if err != nil {
		return
	}
	w.buf = b
	_, _ = w.conn.WriteTo(b, w.to)
}

// readLoop reads conn until ctx is canceled or step reports the reader
// done, with step's error. Each datagram goes to handle with its arrival
// instant — one clock read per datagram, which also bases the next read
// deadline — and step, if set, runs before every read, at most 50 ms
// apart.
func readLoop(ctx context.Context, conn net.PacketConn, handle func(b []byte, now time.Time), step func(now time.Time) (bool, error)) error {
	buf := make([]byte, MaxDatagram+1)
	now := time.Now()
	// Polled without blocking rather than through ctx.Err, which takes the
	// context's lock on every datagram.
	done := ctx.Done()
	for {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if step != nil {
			if stop, err := step(now); stop {
				return err
			}
		}
		_ = conn.SetReadDeadline(now.Add(50 * time.Millisecond))
		n, _, err := conn.ReadFrom(buf)
		now = time.Now()
		switch {
		case err == nil:
			handle(buf[:n], now)
		case !errors.Is(err, os.ErrDeadlineExceeded):
			// A closed socket is expected only during shutdown; with a
			// live context it is a failure the caller must see.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("wire: receive: %w", err)
		}
	}
}
