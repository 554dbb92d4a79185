package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
)

// ColorCount accumulates delivery statistics for one PELS color.
type ColorCount struct {
	// Received datagrams of this color, and their wire bytes.
	Received uint64
	Bytes    uint64
	// Lost datagrams inferred from sequence gaps (a late reordered
	// arrival repays one loss).
	Lost uint64
}

// LossRate returns Lost / (Received + Lost), or 0 before any traffic.
func (c ColorCount) LossRate() float64 {
	total := c.Received + c.Lost
	if total == 0 {
		return 0
	}
	return float64(c.Lost) / float64(total)
}

// add folds d into the running count.
func (c *ColorCount) add(d ColorCount) {
	c.Received += d.Received
	c.Lost += d.Lost
	c.Bytes += d.Bytes
}

// ReceiverStats is a snapshot of a receiver's counters.
type ReceiverStats struct {
	// Datagrams and Bytes count all accepted data datagrams (wire bytes,
	// header included).
	Datagrams uint64
	Bytes     uint64
	// Frames is the number of distinct video frames observed (max frame
	// number + 1).
	Frames uint64
	// Colors holds cumulative per-color counts.
	Colors map[packet.Color]ColorCount
	// Epochs counts distinct feedback epochs observed in-band.
	Epochs uint64
	// LastEpoch holds the per-color counts of the most recently
	// completed feedback epoch, and its number — the "per-epoch loss per
	// color" view of the stream.
	LastEpoch       map[packet.Color]ColorCount
	LastEpochNumber uint64
	// LastFeedback is the most recent in-band label.
	LastFeedback packet.Feedback
	// FeedbackSent counts reverse-path feedback datagrams emitted.
	FeedbackSent uint64
	// Probes counts liveness re-echoes of the last feedback label sent
	// during idle periods (included in FeedbackSent).
	Probes uint64
	// DecodeErrors counts malformed datagrams dropped on the floor.
	DecodeErrors uint64
	// HellosSent counts subscription datagrams sent (Hello mode).
	HellosSent uint64
	// Rejects/Closes count control datagrams from the server; LastReject,
	// LastRejectRetry, and LastClose record the most recent ones.
	Rejects         uint64
	Closes          uint64
	LastReject      Reason
	LastRejectRetry time.Duration
	LastClose       Reason
	// Reconnects counts stream resets after a non-terminal Close: the
	// receiver archived its counters and went back to helloing.
	Reconnects uint64
	// FirstAt/LastAt bracket the arrival interval, for goodput.
	FirstAt time.Time
	LastAt  time.Time
}

// Goodput returns the delivered wire bitrate over the arrival interval.
func (s ReceiverStats) Goodput() units.BitRate {
	d := s.LastAt.Sub(s.FirstAt)
	if d <= 0 {
		return 0
	}
	return units.RateFromBytes(int64(s.Bytes), d)
}

// ReceiverConfig parameterizes the receiving side.
type ReceiverConfig struct {
	// Peer, when set, is where feedback is sent. When nil the receiver
	// replies to the source address of the first data datagram.
	Peer net.Addr
	// Flow, when non-zero, drops data datagrams of other flows.
	Flow uint32
	// Obs, if non-nil, registers the receiver's counters and per-color
	// delivery gauges under the "receiver." prefix.
	Obs *obs.Registry
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
	// ProbeIdle arms the liveness probe: once the stream has started, an
	// idle period of this length makes the receiver re-send its last
	// feedback label, backing off exponentially (ProbeIdle, 2·ProbeIdle,
	// …, capped at ProbeMax) until data resumes. The probes restore the
	// feedback loop after a link outage whose last real echo was lost —
	// without them, sender and receiver can deadlock at minimum rate.
	// 0 disables probing.
	ProbeIdle time.Duration
	// ProbeMax caps the probe backoff; 0 selects 8·ProbeIdle.
	ProbeMax time.Duration
	// Hello arms receiver-driven subscription: Run hellos Peer
	// immediately and retransmits with jittered exponential backoff
	// (HelloRetry doubling up to HelloMax) until data arrives. A Reject
	// postpones the next hello by at least its retry-after hint; a Close
	// either ends Run or — with Reconnect — resets the stream state and
	// re-hellos. Requires Peer.
	Hello bool
	// HelloRetry is the initial hello retransmit interval; 0 selects
	// 200ms.
	HelloRetry time.Duration
	// HelloMax caps the hello backoff; 0 selects 8·HelloRetry.
	HelloMax time.Duration
	// HelloAttempts bounds consecutive unanswered hellos before Run
	// fails with ErrHelloTimeout; 0 means unlimited.
	HelloAttempts int
	// Reconnect keeps the receiver subscribed across server-side closes
	// and rejections: retryable Rejects back off and re-hello instead of
	// failing Run, and a non-complete Close re-hellos for a fresh
	// session. Off, the first Reject or Close ends Run.
	Reconnect bool
	// Seed feeds the hello jitter; 0 selects 1.
	Seed int64
}

// ErrHelloTimeout is returned by Run when HelloAttempts hellos went
// unanswered by data.
var ErrHelloTimeout = errors.New("wire: hello retries exhausted")

// RejectError is returned by Run when the server refused admission and
// the receiver is not configured to keep retrying.
type RejectError struct {
	Reason     Reason
	RetryAfter time.Duration
}

// Error renders the rejection with its retry hint.
func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("wire: server rejected hello: %v (retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("wire: server rejected hello: %v", e.Reason)
}

// colorTrack is the per-color sequence tracker.
type colorTrack struct {
	next  uint64 // next expected sequence number
	count ColorCount
	epoch ColorCount // counts within the current feedback epoch
}

// Receiver consumes a live PELS stream: it tracks per-color loss from
// sequence gaps (cumulatively and per feedback epoch) and echoes every
// fresh router label back to the sender as a feedback datagram — the
// reverse path the simulator models with ACKs. Epoch deduplication on
// the sender makes the echo idempotent.
type Receiver struct {
	cfg  ReceiverConfig
	conn net.PacketConn

	mu        sync.Mutex
	colors    map[packet.Color]*colorTrack
	lastEpoch map[packet.Color]ColorCount
	lastEpNum uint64
	stats     ReceiverStats
	lastFB    packet.Feedback
	fbSeq     uint64
	maxFrame  uint32
	anyFrame  bool
	peer      net.Addr

	// Liveness probe state.
	lastData  time.Time     //pelsvet:guards mu
	lastProbe time.Time     //pelsvet:guards mu
	probeWait time.Duration //pelsvet:guards mu

	// Hello / reconnect state machine. fbSeq deliberately survives
	// resetStreamLocked: feedback and hello sequence numbers never
	// rewind, so the server's freshness logic sees a resumed receiver as
	// strictly newer traffic (the "fresh epoch on resume" rule).
	helloWait  time.Duration               //pelsvet:guards mu — current backoff step
	nextHello  time.Time                   //pelsvet:guards mu — earliest next hello
	helloTries int                         //pelsvet:guards mu — consecutive unanswered hellos
	streaming  bool                        //pelsvet:guards mu — data arrived since last (re)connect
	finished   bool                        //pelsvet:guards mu — terminal: Run must return
	termErr    error                       //pelsvet:guards mu — non-nil terminal error
	archive    map[packet.Color]ColorCount //pelsvet:guards mu — counts from streams before a reconnect
	rng        *rand.Rand                  //pelsvet:guards mu — seeded hello jitter

	obsDatagrams *obs.Counter
	obsBytes     *obs.Counter
	obsEpochs    *obs.Counter
	obsFeedback  *obs.Counter
	obsErrors    *obs.Counter
	obsProbes    *obs.Counter

	// Echo write path: wmu serializes encode+send so encBuf can be
	// reused across echoes instead of allocating one buffer per ACK.
	wmu    sync.Mutex
	encBuf []byte //pelsvet:guards wmu
}

// sendEcho encodes h into the reusable echo buffer and writes it to peer.
// Encode errors and write errors are dropped on the floor like the rest of
// the datagram path: feedback is redundant by design (paper §5.2), the next
// labeled packet triggers another echo.
func (r *Receiver) sendEcho(h Header, peer net.Addr) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	b, err := AppendDatagram(r.encBuf[:0], h, nil)
	if err != nil {
		return
	}
	r.encBuf = b
	_, _ = r.conn.WriteTo(b, peer)
}

// NewReceiver builds a receiver on conn. The conn is borrowed, not
// owned.
func NewReceiver(conn net.PacketConn, cfg ReceiverConfig) *Receiver {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.ProbeIdle > 0 && cfg.ProbeMax <= 0 {
		cfg.ProbeMax = 8 * cfg.ProbeIdle
	}
	if cfg.Hello {
		if cfg.HelloRetry <= 0 {
			cfg.HelloRetry = 200 * time.Millisecond
		}
		if cfg.HelloMax <= 0 {
			cfg.HelloMax = 8 * cfg.HelloRetry
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Receiver{
		cfg:       cfg,
		conn:      conn,
		colors:    map[packet.Color]*colorTrack{},
		peer:      cfg.Peer,
		probeWait: cfg.ProbeIdle,
		helloWait: cfg.HelloRetry,
		rng:       rand.New(rand.NewSource(seed)),
	}
	if cfg.Obs != nil {
		r.obsDatagrams = cfg.Obs.Counter("receiver.datagrams")
		r.obsBytes = cfg.Obs.Counter("receiver.bytes")
		r.obsEpochs = cfg.Obs.Counter("receiver.epochs")
		r.obsFeedback = cfg.Obs.Counter("receiver.feedback_sent")
		r.obsErrors = cfg.Obs.Counter("receiver.decode_errors")
		r.obsProbes = cfg.Obs.Counter("receiver.probes")
		for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
			c := c
			name := "receiver." + strings.ToLower(c.String())
			cfg.Obs.GaugeFunc(name+".received", func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				n := float64(r.archive[c].Received)
				if t := r.colors[c]; t != nil {
					n += float64(t.count.Received)
				}
				return n
			})
			cfg.Obs.GaugeFunc(name+".lost", func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				n := float64(r.archive[c].Lost)
				if t := r.colors[c]; t != nil {
					n += float64(t.count.Lost)
				}
				return n
			})
		}
	}
	return r
}

// Run reads the stream until ctx is canceled, a terminal control
// datagram arrives, or the hello budget runs out. It returns nil on a
// graceful end (Close received, reconnect not applicable), ctx.Err() on
// cancellation, a *RejectError when the server refused admission and
// retrying is off (or pointless), and ErrHelloTimeout when
// HelloAttempts hellos went unanswered. Malformed datagrams are counted
// and dropped; socket errors other than deadline expiry are returned.
func (r *Receiver) Run(ctx context.Context) error {
	buf := make([]byte, MaxDatagram+1)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if done, err := r.terminal(); done {
			return err
		}
		if err := r.maybeHello(r.cfg.Now()); err != nil {
			return err
		}
		_ = r.conn.SetReadDeadline(r.cfg.Now().Add(50 * time.Millisecond))
		n, from, err := r.conn.ReadFrom(buf)
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			r.maybeProbe(r.cfg.Now())
			continue
		case errors.Is(err, net.ErrClosed):
			// Expected only during shutdown; with a live context the
			// closed socket is a failure the caller must see.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("wire: receive: %w", err)
		default:
			return fmt.Errorf("wire: receive: %w", err)
		}
		r.Handle(buf[:n], from, r.cfg.Now())
	}
}

// terminal reports whether the receiver reached a state Run must return
// from, and with what error.
func (r *Receiver) terminal() (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished, r.termErr
}

// maybeHello sends (or schedules) the next subscription hello. It
// returns a non-nil error exactly when the attempt budget is exhausted,
// which ends Run.
func (r *Receiver) maybeHello(now time.Time) error {
	if !r.cfg.Hello {
		return nil
	}
	r.mu.Lock()
	if r.streaming || r.finished || r.peer == nil ||
		(!r.nextHello.IsZero() && now.Before(r.nextHello)) {
		r.mu.Unlock()
		return nil
	}
	if r.cfg.HelloAttempts > 0 && r.helloTries >= r.cfg.HelloAttempts {
		r.finished = true
		tries := r.helloTries
		lastReject := r.stats.LastReject
		r.mu.Unlock()
		if lastReject != ReasonNone {
			return fmt.Errorf("%w: %d hellos unanswered (last reject: %v)",
				ErrHelloTimeout, tries, lastReject)
		}
		return fmt.Errorf("%w: %d hellos unanswered", ErrHelloTimeout, tries)
	}
	r.helloTries++
	r.fbSeq++
	h := Header{
		Type:      TypeHello,
		Color:     packet.ACK,
		Flow:      r.cfg.Flow,
		Seq:       r.fbSeq,
		Timestamp: now.UnixNano(),
	}
	r.stats.HellosSent++
	r.scheduleHelloLocked(now, 0)
	peer := r.peer
	r.mu.Unlock()

	r.sendEcho(h, peer)
	return nil
}

// scheduleHelloLocked sets the next hello instant — at least the current
// backoff step (or minDelay, whichever is larger) plus up to 25% seeded
// jitter so a crowd of rejected receivers doesn't re-hello in lockstep —
// then doubles the step toward HelloMax.
func (r *Receiver) scheduleHelloLocked(now time.Time, minDelay time.Duration) {
	d := r.helloWait
	if minDelay > d {
		d = minDelay
	}
	if d > 0 {
		d += time.Duration(r.rng.Int63n(int64(d)/4 + 1))
	}
	r.nextHello = now.Add(d)
	if r.helloWait *= 2; r.helloWait > r.cfg.HelloMax {
		r.helloWait = r.cfg.HelloMax
	}
}

// maybeProbe re-echoes the last feedback label when the stream has gone
// idle, with bounded exponential backoff (exported indirectly through Run;
// tests may call it with a synthetic clock via Handle + deadline expiry).
func (r *Receiver) maybeProbe(now time.Time) {
	if r.cfg.ProbeIdle <= 0 {
		return
	}
	r.mu.Lock()
	if !r.lastFB.Valid || r.peer == nil ||
		now.Sub(r.lastData) < r.probeWait || now.Sub(r.lastProbe) < r.probeWait {
		r.mu.Unlock()
		return
	}
	r.lastProbe = now
	if r.probeWait *= 2; r.probeWait > r.cfg.ProbeMax {
		r.probeWait = r.cfg.ProbeMax
	}
	r.fbSeq++
	echo := Header{
		Type:      TypeFeedback,
		Color:     packet.ACK,
		Flow:      r.cfg.Flow,
		Seq:       r.fbSeq,
		Timestamp: now.UnixNano(),
		Feedback:  r.lastFB,
	}
	r.stats.FeedbackSent++
	r.stats.Probes++
	if r.obsProbes != nil {
		r.obsProbes.Inc()
		r.obsFeedback.Inc()
	}
	peer := r.peer
	r.mu.Unlock()

	r.sendEcho(echo, peer)
}

// Handle processes one raw datagram (exported so tests can drive the
// receiver without a socket). Fresh feedback labels trigger an echo to
// the peer; Reject and Close datagrams drive the reconnect state
// machine.
func (r *Receiver) Handle(b []byte, from net.Addr, now time.Time) {
	h, _, err := DecodeDatagram(b)
	if err != nil {
		r.mu.Lock()
		r.stats.DecodeErrors++
		if r.obsErrors != nil {
			r.obsErrors.Inc()
		}
		r.mu.Unlock()
		return
	}
	if r.cfg.Flow != 0 && h.Flow != r.cfg.Flow {
		return
	}
	switch h.Type {
	case TypeReject:
		r.onReject(h, now)
		return
	case TypeClose:
		r.onClose(h, now)
		return
	case TypeData:
	default:
		return
	}

	r.mu.Lock()
	if r.peer == nil {
		r.peer = from
	}
	if r.stats.Datagrams == 0 {
		r.stats.FirstAt = now
	}
	r.stats.LastAt = now
	r.lastData = now
	r.probeWait = r.cfg.ProbeIdle // data resumed: rearm the backoff
	r.streaming = true
	r.helloTries = 0
	r.helloWait = r.cfg.HelloRetry
	r.stats.Datagrams++
	r.stats.Bytes += uint64(len(b))
	if r.obsDatagrams != nil {
		r.obsDatagrams.Inc()
		r.obsBytes.Add(int64(len(b)))
	}
	if !r.anyFrame || h.Frame > r.maxFrame {
		r.maxFrame = h.Frame
		r.anyFrame = true
	}

	t := r.colors[h.Color]
	if t == nil {
		t = &colorTrack{}
		r.colors[h.Color] = t
	}
	switch {
	case h.Seq >= t.next:
		gap := h.Seq - t.next
		t.count.Lost += gap
		t.epoch.Lost += gap
		t.next = h.Seq + 1
	case t.count.Lost > 0:
		// A reordered late arrival repays one presumed loss.
		t.count.Lost--
		if t.epoch.Lost > 0 {
			t.epoch.Lost--
		}
	}
	t.count.Received++
	t.count.Bytes += uint64(len(b))
	t.epoch.Received++
	t.epoch.Bytes += uint64(len(b))

	var echo *Header
	if h.Feedback.Valid && fresher(h.Feedback, r.lastFB) {
		if r.lastFB.Valid {
			// Close the per-epoch window before switching labels.
			r.lastEpoch = map[packet.Color]ColorCount{}
			for c, ct := range r.colors {
				r.lastEpoch[c] = ct.epoch
				ct.epoch = ColorCount{}
			}
			r.lastEpNum = r.lastFB.Epoch
		}
		r.lastFB = h.Feedback
		r.stats.Epochs++
		r.fbSeq++
		echo = &Header{
			Type:      TypeFeedback,
			Color:     packet.ACK,
			Flow:      r.cfg.Flow,
			Seq:       r.fbSeq,
			Timestamp: now.UnixNano(),
			Feedback:  h.Feedback,
		}
		r.stats.FeedbackSent++
		if r.obsEpochs != nil {
			r.obsEpochs.Inc()
			r.obsFeedback.Inc()
		}
	}
	peer := r.peer
	r.mu.Unlock()

	if echo != nil && peer != nil {
		r.sendEcho(*echo, peer)
	}
}

// onReject applies one Reject datagram: with reconnect on and a
// retryable reason the next hello honors max(backoff, retry-after);
// otherwise the rejection is terminal and Run returns a *RejectError.
func (r *Receiver) onReject(h Header, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Rejects++
	r.stats.LastReject = h.Reason()
	r.stats.LastRejectRetry = h.RetryAfter()
	if !r.cfg.Hello || r.streaming || r.finished {
		return // passive receiver, or stale reject after data started
	}
	if !r.cfg.Reconnect || !h.Reason().Retryable() {
		r.finished = true
		r.termErr = &RejectError{Reason: h.Reason(), RetryAfter: h.RetryAfter()}
		return
	}
	r.scheduleHelloLocked(now, h.RetryAfter())
}

// onClose applies one Close datagram: a completed stream (or any close
// with reconnect off) ends Run gracefully; otherwise the stream state is
// archived and the receiver goes back to helloing for a fresh session.
func (r *Receiver) onClose(h Header, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.stats.Closes++
	r.stats.LastClose = h.Reason()
	if h.Reason() == ReasonComplete || !r.cfg.Reconnect || !r.cfg.Hello {
		r.finished = true
		return
	}
	r.resetStreamLocked()
	r.stats.Reconnects++
	r.scheduleHelloLocked(now, h.RetryAfter())
}

// resetStreamLocked folds the current stream's per-color counts into the
// archive and clears every per-session tracker, so the next session's
// sequence spaces (restarting at zero) don't read as regressions or
// mass loss. fbSeq is deliberately kept: it must never rewind.
func (r *Receiver) resetStreamLocked() {
	if r.archive == nil {
		r.archive = map[packet.Color]ColorCount{}
	}
	for c, t := range r.colors {
		a := r.archive[c]
		a.Received += t.count.Received
		a.Bytes += t.count.Bytes
		a.Lost += t.count.Lost
		r.archive[c] = a
		delete(r.colors, c)
	}
	r.lastFB = packet.Feedback{}
	r.lastEpoch = nil
	r.anyFrame = false
	r.maxFrame = 0
	r.streaming = false
	r.helloTries = 0
	r.helloWait = r.cfg.HelloRetry
	r.probeWait = r.cfg.ProbeIdle
}

// fresher reports whether fb is a label the receiver has not yet echoed:
// a new router, or a newer epoch of the same router (mirrors the
// freshness rule the controllers apply, paper §5.2).
func fresher(fb, last packet.Feedback) bool {
	if !last.Valid {
		return true
	}
	return fb.RouterID != last.RouterID || fb.Epoch > last.Epoch
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	// Colors sums the live stream with anything archived by reconnects,
	// so loss assertions see the whole receiver lifetime.
	st.Colors = map[packet.Color]ColorCount{}
	for c, a := range r.archive {
		st.Colors[c] = a
	}
	for c, t := range r.colors {
		cc := st.Colors[c]
		cc.Received += t.count.Received
		cc.Bytes += t.count.Bytes
		cc.Lost += t.count.Lost
		st.Colors[c] = cc
	}
	st.LastEpoch = map[packet.Color]ColorCount{}
	for c, ct := range r.lastEpoch {
		st.LastEpoch[c] = ct
	}
	st.LastEpochNumber = r.lastEpNum
	st.LastFeedback = r.lastFB
	if r.anyFrame {
		st.Frames = uint64(r.maxFrame) + 1
	}
	return st
}
