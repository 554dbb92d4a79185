package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/timewheel"
	"repro/internal/units"
)

// SwarmConfig parameterizes a receiver swarm — the load-generation
// counterpart of internal/session: many lightweight PELS receivers
// multiplexed over a few sockets, driven by a fixed goroutine pool (one
// read loop per socket plus one hello driver) instead of a full
// Receiver goroutine per flow.
type SwarmConfig struct {
	// Server is where hellos and feedback are sent. Required.
	Server net.Addr
	// Receivers is the number of synthetic receivers. Required.
	Receivers int
	// Sockets is how many UDP sockets the receivers share; flows are
	// assigned round-robin. 0 selects min(16, Receivers).
	Sockets int
	// FirstFlow is the flow ID of receiver 0; receiver i uses
	// FirstFlow+i. 0 selects 1.
	FirstFlow uint32
	// Seed drives the arrival jitter. 0 selects 1.
	Seed int64
	// Ramp spreads receiver start times uniformly over this window, so a
	// big swarm does not hammer the server with one synchronized hello
	// burst. 0 starts everyone immediately.
	Ramp time.Duration
	// HelloRetry re-sends a receiver's hello until its first data
	// datagram arrives. 0 selects 500ms.
	HelloRetry time.Duration
	// HelloBackoffMax caps the per-receiver hello backoff: every
	// unanswered hello (or Reject) doubles the wait from HelloRetry
	// toward this cap, and a Reject's retry-after hint sets the floor.
	// 0 selects 8·HelloRetry.
	HelloBackoffMax time.Duration
	// Reconnect re-hellos receivers whose session the server closed for
	// a retryable reason (drain, idle/stuck reap) instead of leaving
	// them dark; Close(complete) always finishes the receiver.
	Reconnect bool
	// Storm, when armed (Fraction > 0), runs the mass-disconnect drill:
	// that fraction of receivers goes silent At after swarm start —
	// data dropped, no echoes, no hellos — until Resume has passed,
	// then resets and re-hellos in one wave.
	Storm SwarmStorm
	// Listen opens one swarm socket; nil selects an ephemeral UDP port.
	// Tests substitute emulator endpoints here.
	Listen func() (net.PacketConn, error)
}

// SwarmStorm configures the disconnect-storm drill.
type SwarmStorm struct {
	// At is the offset from swarm start when the selected receivers go
	// dark.
	At time.Duration
	// Fraction in (0,1] selects how many receivers participate (the
	// first ⌈Fraction·Receivers⌉ by flow order — deterministic).
	Fraction float64
	// Resume is how long they stay dark; 0 selects 2s.
	Resume time.Duration
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Sockets <= 0 {
		c.Sockets = 16
		if c.Receivers < c.Sockets {
			c.Sockets = c.Receivers
		}
	}
	if c.FirstFlow == 0 {
		c.FirstFlow = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HelloRetry <= 0 {
		c.HelloRetry = 500 * time.Millisecond
	}
	if c.HelloBackoffMax <= 0 {
		c.HelloBackoffMax = 8 * c.HelloRetry
	}
	if c.Storm.Fraction > 0 && c.Storm.Resume <= 0 {
		c.Storm.Resume = 2 * time.Second
	}
	if c.Listen == nil {
		c.Listen = func() (net.PacketConn, error) { return net.ListenPacket("udp", "127.0.0.1:0") }
	}
	return c
}

// SwarmReceiverStats is one synthetic receiver's delivery snapshot.
type SwarmReceiverStats struct {
	Flow      uint32
	Datagrams uint64
	Bytes     uint64
	Colors    map[packet.Color]ColorCount
	// SeqRegressions counts datagrams whose sequence number ran backwards
	// with no loss debt to repay — on a loss-free loopback link, any
	// regression means another session's sequence space leaked into this
	// flow.
	SeqRegressions uint64
	// CrossDeliveries counts data datagrams that arrived on a different
	// socket than the flow's own — direct evidence of cross-session
	// demux bleed on the server.
	CrossDeliveries uint64
	HellosSent      uint64
	FeedbackSent    uint64
	Epochs          uint64
	LastFeedback    packet.Feedback
	// Control-plane view: rejections and closes from the server, the
	// most recent of each, and the reconnect lifecycle — Reconnects
	// counts stream resets (close- or storm-triggered), Resumes counts
	// streams that actually delivered data again afterwards.
	Rejects         uint64
	Closes          uint64
	Reconnects      uint64
	Resumes         uint64
	LastReject      Reason
	LastClose       Reason
	LastRetryAfter  time.Duration
	FirstAt, LastAt time.Time
	// Startup is the viewer's wait for its first stream: from the hello tick
	// that sent its first hello (so a late load generator counts against
	// it, as do rejections and lost hellos) to the first data datagram read.
	// Zero until data arrives.
	Startup time.Duration
	// SteadyBytes/SteadyAt accumulate since the last MarkSteady call —
	// the converged-rate measurement window.
	SteadyBytes uint64
	SteadyAt    time.Time
}

// Goodput is the delivered wire bitrate over the whole arrival interval.
func (s SwarmReceiverStats) Goodput() units.BitRate {
	d := s.LastAt.Sub(s.FirstAt)
	if d <= 0 {
		return 0
	}
	return units.RateFromBytes(int64(s.Bytes), d)
}

// SteadyRate is the delivered bitrate since MarkSteady — the per-session
// converged rate when the mark is placed after the ramp.
func (s SwarmReceiverStats) SteadyRate() units.BitRate {
	d := s.LastAt.Sub(s.SteadyAt)
	if d <= 0 {
		return 0
	}
	return units.RateFromBytes(int64(s.SteadyBytes), d)
}

// swarmTrack is the per-color sequence tracker (colorTrack without the
// per-epoch window, which the swarm does not need).
type swarmTrack struct {
	next  uint64
	count ColorCount
}

// swarmColors sizes the per-receiver tracker arrays: a data datagram is
// green, yellow, red or best-effort (Header.validate), so indexing by
// colour needs no map.
const swarmColors = int(packet.BestEffort) + 1

// swarmReceiver is one synthetic receiver's state machine:
// hello (retried) → streaming (echo fresh labels) — a strict subset of
// Receiver, small enough for ten thousand instances.
type swarmReceiver struct {
	flow    uint32
	sock    int
	startAt time.Time

	mu         sync.Mutex
	gotData    bool
	firstHello time.Time // tick of the first hello sent; Startup counts from it
	nextHello  time.Time
	helloWait  time.Duration // current backoff step, doubles toward HelloBackoffMax
	jit        uint64        // xorshift state for per-receiver jitter
	done       bool          // terminal: Close(complete) or non-reconnecting close
	resuming   bool          // reset happened; next data datagram counts a Resume
	stormArmed bool          // selected for the storm, not yet fired
	muted      bool          // mid-storm: drop everything, send nothing
	resumeAt   time.Time
	colors     [swarmColors]swarmTrack
	arch       *[swarmColors]ColorCount // counts folded in by resets; nil until the first
	lastFB     packet.Feedback
	fbSeq      uint64
	st         SwarmReceiverStats
	// timer is the receiver's one entry on the swarm's wheel; see
	// Swarm.armLocked for when it is live and where.
	timer timewheel.Timer[swarmReceiver]
}

// jitter returns a deterministic pseudo-random duration in [0, d/4].
func (r *swarmReceiver) jitterLocked(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.jit ^= r.jit << 13
	r.jit ^= r.jit >> 7
	r.jit ^= r.jit << 17
	return time.Duration(r.jit % uint64(d/4+1))
}

// resetLocked rewinds the receiver to the helloing state for a fresh
// session: delivered counts fold into the archive (so cumulative loss
// accounting survives the reconnect), trackers and feedback clear, and
// the backoff restarts. fbSeq is deliberately kept — feedback echoes on
// the resumed session must stay fresher than pre-close ones.
func (r *swarmReceiver) resetLocked(helloRetry time.Duration) {
	if r.arch == nil {
		r.arch = new([swarmColors]ColorCount)
	}
	for c := range r.colors {
		r.arch[c].add(r.colors[c].count)
		r.colors[c] = swarmTrack{}
	}
	r.lastFB = packet.Feedback{}
	r.gotData = false
	r.helloWait = helloRetry
	r.resuming = true
	r.st.Reconnects++
}

// Swarm drives Receivers synthetic PELS receivers against one server.
// Goroutine cost is Sockets+1 regardless of the receiver count.
type Swarm struct {
	cfg   SwarmConfig
	socks []net.PacketConn
	// recvs is immutable after New and ordered by flow — receiver i owns
	// flow FirstFlow+i — so read loops demux by index, lock-free.
	recvs []*swarmReceiver

	// wheel holds one timer per receiver with something pending, and
	// fired is helloStep's scratch; only the hello driver advances it.
	wheel *timewheel.Wheel[swarmReceiver]
	fired []*timewheel.Timer[swarmReceiver]

	// stormAt is the absolute fire time of the disconnect storm; zero
	// when the drill is unarmed.
	stormAt time.Time

	wmu     []sync.Mutex // per-socket write serialization
	encBufs [][]byte
}

const (
	// helloTick is the hello driver's cadence: deadlines take effect on
	// the first tick at or after them.
	helloTick = 25 * time.Millisecond
	// swarmWheelTick is well under helloTick, so every hello tick moves
	// the wheel's cursor however the ticker jitters; swarmWheelSlots makes
	// the horizon (5.12 s) cover the default hello backoff.
	swarmWheelTick  = 5 * time.Millisecond
	swarmWheelSlots = 1024
)

// NewSwarm opens the sockets and builds the receiver set; call Run to
// start traffic. Arrival times are seeded off cfg.Seed relative to now.
func NewSwarm(cfg SwarmConfig, now time.Time) (*Swarm, error) {
	if cfg.Server == nil {
		return nil, errors.New("wire: SwarmConfig.Server is required")
	}
	if cfg.Receivers <= 0 {
		return nil, fmt.Errorf("wire: SwarmConfig.Receivers %d must be positive", cfg.Receivers)
	}
	cfg = cfg.withDefaults()
	s := &Swarm{
		cfg:     cfg,
		recvs:   make([]*swarmReceiver, 0, cfg.Receivers),
		wheel:   timewheel.New[swarmReceiver](swarmWheelTick, swarmWheelSlots, now),
		wmu:     make([]sync.Mutex, cfg.Sockets),
		encBufs: make([][]byte, cfg.Sockets),
	}
	for i := 0; i < cfg.Sockets; i++ {
		conn, err := cfg.Listen()
		if err != nil {
			s.closeSocks()
			return nil, fmt.Errorf("wire: swarm socket %d: %w", i, err)
		}
		s.socks = append(s.socks, conn)
	}
	stormCount := 0
	if cfg.Storm.Fraction > 0 {
		s.stormAt = now.Add(cfg.Storm.At)
		stormCount = int(cfg.Storm.Fraction * float64(cfg.Receivers))
		if float64(stormCount) < cfg.Storm.Fraction*float64(cfg.Receivers) {
			stormCount++
		}
		if stormCount > cfg.Receivers {
			stormCount = cfg.Receivers
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Receivers; i++ {
		start := now
		if cfg.Ramp > 0 {
			start = now.Add(time.Duration(rng.Int63n(int64(cfg.Ramp))))
		}
		r := &swarmReceiver{
			flow:       cfg.FirstFlow + uint32(i),
			sock:       i % cfg.Sockets,
			startAt:    start,
			helloWait:  cfg.HelloRetry,
			jit:        uint64(cfg.Seed)*0x9E3779B97F4A7C15 + uint64(cfg.FirstFlow+uint32(i))*0xBF58476D1CE4E5B9 | 1,
			stormArmed: i < stormCount,
		}
		r.nextHello = start
		r.st.Flow = r.flow
		r.st.SteadyAt = start
		r.timer.Owner = r
		s.armLocked(r) // not shared yet; nothing to lock
		s.recvs = append(s.recvs, r)
	}
	return s, nil
}

func (s *Swarm) closeSocks() {
	for _, c := range s.socks {
		_ = c.Close()
	}
}

// Sockets returns how many sockets the swarm opened.
func (s *Swarm) Sockets() int { return len(s.socks) }

// Run drives the swarm until ctx is canceled, then closes the sockets.
func (s *Swarm) Run(ctx context.Context) error {
	defer s.closeSocks()
	errCh := make(chan error, len(s.socks))
	var wg sync.WaitGroup
	for i := range s.socks {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			if err := s.readLoop(ctx, idx); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.helloLoop(ctx)
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// helloLoop drives the storm mute/resume transitions and the hellos
// (retried with jittered exponential backoff) on a coarse tick, waking
// only the receivers with something due. The invariant: a receiver has at
// most one live timer, armed at its next relevant instant (armLocked) by
// whoever moves that instant, under the receiver's lock. A timer may
// outlive its reason — first data or a terminal close do not touch the
// wheel — and then fires once into a step that finds nothing due.
func (s *Swarm) helloLoop(ctx context.Context) {
	tick := time.NewTicker(helloTick)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			s.helloStep(now)
		}
	}
}

// helloStep is one tick of the hello driver at instant now. The wheel
// fires on its own grid, up to one wheel tick after a deadline, which
// could cost a hello a whole hello tick; so the wheel is run one wheel
// tick ahead, and the due tests below — they are the rule: a deadline
// takes effect on the first tick at or after it — send the early ones back
// to fire again on the next tick. Receivers are stepped in flow order.
//
//pelsvet:noalloc
func (s *Swarm) helloStep(now time.Time) {
	s.fired = s.wheel.Advance(now.Add(swarmWheelTick), s.fired[:0])
	slices.SortFunc(s.fired, byFlow)
	for _, t := range s.fired {
		r := t.Owner
		r.mu.Lock()
		if r.stormArmed && !now.Before(s.stormAt) {
			r.stormArmed = false
			r.muted = true
			r.resumeAt = now.Add(s.cfg.Storm.Resume)
		}
		if r.muted && !now.Before(r.resumeAt) {
			// The dark window ended: come back as a fresh
			// session and re-hello immediately — the whole
			// cohort resumes in one wave on purpose.
			r.muted = false
			r.resetLocked(s.cfg.HelloRetry)
			r.nextHello = now
		}
		due := !r.done && !r.muted && !r.gotData && !now.Before(r.nextHello)
		if due {
			r.nextHello = now.Add(r.helloWait + r.jitterLocked(r.helloWait))
			r.helloWait *= 2
			if r.helloWait > s.cfg.HelloBackoffMax {
				r.helloWait = s.cfg.HelloBackoffMax
			}
			if r.st.HellosSent == 0 {
				r.firstHello = now
			}
			r.st.HellosSent++
		}
		s.armLocked(r)
		r.mu.Unlock()
		if due {
			s.send(r.sock, Header{
				Type:      TypeHello,
				Color:     packet.ACK,
				Flow:      r.flow,
				Timestamp: now.UnixNano(),
			})
		}
	}
}

func byFlow(a, b *timewheel.Timer[swarmReceiver]) int {
	return cmp.Compare(a.Owner.flow, b.Owner.flow)
}

// armLocked moves r's timer to the next instant a tick has work for it:
// the storm while armed for it, the end of the dark window while muted,
// the next hello while helloing; nothing while streaming or done.
//
//pelsvet:noalloc
func (s *Swarm) armLocked(r *swarmReceiver) {
	var at time.Time
	switch {
	case r.muted:
		at = r.resumeAt
	case r.stormArmed:
		at = s.stormAt
	}
	helloing := !r.done && !r.muted && !r.gotData
	if helloing && (at.IsZero() || r.nextHello.Before(at)) {
		at = r.nextHello
	}
	if at.IsZero() {
		s.wheel.Cancel(&r.timer)
		return
	}
	s.wheel.Reset(&r.timer, at)
}

// send encodes h and writes it to the server from socket idx.
func (s *Swarm) send(idx int, h Header) {
	s.wmu[idx].Lock()
	defer s.wmu[idx].Unlock()
	b, err := AppendDatagram(s.encBufs[idx][:0], h, nil)
	if err != nil {
		return
	}
	s.encBufs[idx] = b
	_, _ = s.socks[idx].WriteTo(b, s.cfg.Server)
}

// readLoop consumes one socket: data datagrams update the owning
// receiver's trackers, and fresh feedback labels are echoed back. The
// clock is read once per datagram: the arrival instant handed to handle
// also bases the next read deadline.
func (s *Swarm) readLoop(ctx context.Context, idx int) error {
	conn := s.socks[idx]
	buf := make([]byte, MaxDatagram+1)
	now := time.Now()
	// Polled without blocking rather than through ctx.Err, which takes the
	// context's lock on every datagram.
	done := ctx.Done()
	for {
		select {
		case <-done:
			return nil
		default:
		}
		_ = conn.SetReadDeadline(now.Add(50 * time.Millisecond))
		n, _, err := conn.ReadFrom(buf)
		now = time.Now()
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			continue
		default:
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("wire: swarm read: %w", err)
		}
		s.handle(idx, buf[:n], now)
	}
}

// handle applies one datagram received on socket idx.
//
//pelsvet:noalloc
func (s *Swarm) handle(idx int, b []byte, now time.Time) {
	h, _, err := DecodeDatagram(b)
	if err != nil {
		return
	}
	// Flows are contiguous from FirstFlow; one below it wraps past the end.
	i := h.Flow - s.cfg.FirstFlow
	if i >= uint32(len(s.recvs)) {
		return
	}
	r := s.recvs[i]
	switch h.Type {
	case TypeData:
	case TypeReject:
		s.onReject(r, h, now)
		return
	case TypeClose:
		s.onClose(r, h, now)
		return
	default:
		return
	}
	if int(h.Color) >= swarmColors {
		return
	}

	r.mu.Lock()
	if r.muted || r.done {
		// Mid-storm (or finished) receivers are dead hosts: data is
		// dropped without echoing feedback, so the server's idle reaper
		// sees true silence.
		r.mu.Unlock()
		return
	}
	if r.sock != idx {
		r.st.CrossDeliveries++
	}
	if r.resuming {
		r.resuming = false
		r.st.Resumes++
	}
	r.gotData = true
	if r.st.Datagrams == 0 {
		r.st.FirstAt = now
		if !r.firstHello.IsZero() { // data nobody asked for has no startup
			r.st.Startup = now.Sub(r.firstHello)
		}
	}
	r.st.LastAt = now
	r.st.Datagrams++
	r.st.Bytes += uint64(len(b))
	r.st.SteadyBytes += uint64(len(b))

	t := &r.colors[h.Color]
	switch {
	case h.Seq >= t.next:
		gap := h.Seq - t.next
		t.count.Lost += gap
		t.next = h.Seq + 1
	case t.count.Lost > 0:
		// A reordered late arrival repays one presumed loss.
		t.count.Lost--
	default:
		r.st.SeqRegressions++
	}
	t.count.Received++
	t.count.Bytes += uint64(len(b))

	echo := h.Feedback.Valid && fresher(h.Feedback, r.lastFB)
	if echo {
		r.lastFB = h.Feedback
		r.st.Epochs++
		r.fbSeq++
		r.st.FeedbackSent++
	}
	fbSeq := r.fbSeq
	r.mu.Unlock()

	if echo {
		s.send(r.sock, Header{
			Type:      TypeFeedback,
			Color:     packet.ACK,
			Flow:      r.flow,
			Seq:       fbSeq,
			Timestamp: now.UnixNano(),
			Feedback:  h.Feedback,
		})
	}
}

// onReject records an admission rejection and pushes the next hello out
// to at least the server's retry-after hint (plus jitter), on top of
// whatever backoff the hello loop already applied.
func (s *Swarm) onReject(r *swarmReceiver, h Header, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.muted || r.done {
		return
	}
	r.st.Rejects++
	r.st.LastReject = h.Reason()
	r.st.LastRetryAfter = h.RetryAfter()
	if ra := h.RetryAfter(); ra > 0 && !r.gotData {
		if at := now.Add(ra + r.jitterLocked(ra)); at.After(r.nextHello) {
			r.nextHello = at
			s.armLocked(r)
		}
	}
}

// onClose ends or recycles the session. Close(complete) — and any close
// when reconnection is off — finishes the receiver for good; a
// retryable close folds the stream into the archive and re-enters the
// hello loop as a fresh session.
func (s *Swarm) onClose(r *swarmReceiver, h Header, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.muted || r.done {
		return
	}
	r.st.Closes++
	r.st.LastClose = h.Reason()
	if h.Reason() == ReasonComplete || !s.cfg.Reconnect {
		r.done = true
		return
	}
	r.resetLocked(s.cfg.HelloRetry)
	r.nextHello = now.Add(r.helloWait + r.jitterLocked(r.helloWait))
	s.armLocked(r)
}

// MarkSteady resets every receiver's steady-state window to now; call it
// once the ramp has settled so SteadyRate measures converged throughput.
func (s *Swarm) MarkSteady(now time.Time) {
	for _, r := range s.recvs {
		r.mu.Lock()
		r.st.SteadyBytes = 0
		r.st.SteadyAt = now
		r.mu.Unlock()
	}
}

// Stats snapshots every receiver, ordered by flow ID.
func (s *Swarm) Stats() []SwarmReceiverStats {
	out := make([]SwarmReceiverStats, 0, len(s.recvs))
	for _, r := range s.recvs {
		r.mu.Lock()
		st := r.st
		st.LastFeedback = r.lastFB
		st.Colors = make(map[packet.Color]ColorCount, swarmColors)
		for c := range r.colors {
			n := r.colors[c].count
			if r.arch != nil {
				n.add(r.arch[c])
			}
			// A colour is reported once a datagram of it has arrived.
			if n.Received > 0 {
				st.Colors[packet.Color(c)] = n
			}
		}
		r.mu.Unlock()
		out = append(out, st)
	}
	return out
}
