package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/timewheel"
)

// SwarmConfig parameterizes a receiver swarm, the one live driver of the
// receiver core: from a single subscriber (pelsget, the loopback
// experiments) to a load generator's crowd, many PELS receivers
// multiplexed over a few sockets and driven by a fixed goroutine pool —
// one read loop per socket plus one hello driver — instead of a goroutine
// per flow.
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
	// datagram arrives: every unanswered hello doubles the wait from
	// HelloRetry toward 8·HelloRetry, and a Reject's retry-after hint
	// floors the next one. 0 selects 500ms.
	HelloRetry time.Duration
	// HelloAttempts bounds a receiver's consecutive unanswered hellos;
	// the next one ends it with ErrHelloTimeout. 0 means unlimited.
	HelloAttempts int
	// ProbeIdle arms the liveness probe: after this long without data a
	// streaming receiver re-echoes its last label, the wait doubling
	// toward 8·ProbeIdle until data resumes. The probes restore the
	// feedback loop after an outage that lost the last real echo, which
	// would otherwise leave sender and receiver deadlocked at minimum
	// rate. 0 disables it.
	ProbeIdle time.Duration
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
	if c.Storm.Fraction > 0 && c.Storm.Resume <= 0 {
		c.Storm.Resume = 2 * time.Second
	}
	if c.Listen == nil {
		c.Listen = func() (net.PacketConn, error) { return net.ListenPacket("udp", "127.0.0.1:0") }
	}
	return c
}

// SwarmReceiverStats is one swarm receiver's snapshot.
type SwarmReceiverStats = ReceiverStats

// swarmReceiver is one receiver: the receiver core plus the swarm's probe
// and storm state and its one timer, small enough for ten thousand
// instances.
type swarmReceiver struct {
	sock int

	mu         sync.Mutex
	core       RecvCore
	stormArmed bool // selected for the storm, not yet fired
	muted      bool // mid-storm: drop everything, send nothing
	resumeAt   time.Time
	// The probe is due probeWait after quietFrom, the last data or probe.
	quietFrom time.Time
	probeWait time.Duration
	// timer is the receiver's one entry on the swarm's wheel; see
	// Swarm.armLocked for when it is live and where.
	timer timewheel.Timer[swarmReceiver]
}

// Swarm drives Receivers PELS receivers against one server. Run costs one
// goroutine per socket besides its own, regardless of the receiver count.
type Swarm struct {
	cfg SwarmConfig
	pol helloPolicy
	// out holds one socket per entry, each with its write path to the
	// server; receiver i reads and writes on out[i%Sockets].
	out []echoWriter
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

	// decodeErrors counts datagrams that did not decode: they name no
	// flow, so no receiver can be charged.
	decodeErrors atomic.Uint64
	// ends counts the receivers that have ended (for good: a reset never
	// revives one).
	ends atomic.Int64
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
		cfg:   cfg,
		pol:   helloPolicy{retry: cfg.HelloRetry, max: 8 * cfg.HelloRetry, attempts: cfg.HelloAttempts, reconnect: cfg.Reconnect},
		out:   make([]echoWriter, cfg.Sockets),
		recvs: make([]*swarmReceiver, 0, cfg.Receivers),
		wheel: timewheel.New[swarmReceiver](swarmWheelTick, swarmWheelSlots, now),
	}
	for i := range s.out {
		conn, err := cfg.Listen()
		if err != nil {
			s.closeSocks()
			return nil, fmt.Errorf("wire: swarm socket %d: %w", i, err)
		}
		s.out[i].conn, s.out[i].to = conn, cfg.Server
	}
	stormCount := 0
	if cfg.Storm.Fraction > 0 {
		s.stormAt = now.Add(cfg.Storm.At)
		stormCount = min(int(math.Ceil(cfg.Storm.Fraction*float64(cfg.Receivers))), cfg.Receivers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Receivers; i++ {
		start := now
		if cfg.Ramp > 0 {
			start = now.Add(time.Duration(rng.Int63n(int64(cfg.Ramp))))
		}
		r := &swarmReceiver{
			sock:       i % cfg.Sockets,
			core:       newRecvCore(&s.pol, cfg.FirstFlow+uint32(i), cfg.Seed, start),
			stormArmed: i < stormCount,
			probeWait:  cfg.ProbeIdle,
		}
		r.core.st.SteadyAt = start
		r.timer.Owner = r
		s.armLocked(r) // not shared yet; nothing to lock
		s.recvs = append(s.recvs, r)
	}
	return s, nil
}

func (s *Swarm) closeSocks() {
	for i := range s.out {
		if c := s.out[i].conn; c != nil {
			_ = c.Close()
		}
	}
}

// Sockets returns how many sockets the swarm opened.
func (s *Swarm) Sockets() int { return len(s.out) }

// Run drives the swarm until every receiver has ended or ctx is canceled,
// then closes the sockets: a read loop per socket hands each datagram to
// its receiver, and the caller's goroutine runs the hello driver on its
// tick. It returns nil on cancellation, and when every receiver ended the
// errors.Join of why each one did — nil for a Close, a *RejectError for a
// permanent Reject, ErrHelloTimeout for a spent hello budget. A socket
// error ends the run at once and is returned.
func (s *Swarm) Run(ctx context.Context) error {
	defer s.closeSocks()
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	errCh := make(chan error, len(s.out))
	for i := range s.out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle := func(b []byte, now time.Time) { s.handle(i, b, now) }
			if err := readLoop(ctx, s.out[i].conn, handle); err != nil && ctx.Err() == nil {
				errCh <- err
			}
		}()
	}
	tick := time.NewTicker(helloTick)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			s.helloStep(now)
			if s.ended() {
				return s.endErr()
			}
		case err := <-errCh:
			return err
		case <-ctx.Done():
			return nil
		}
	}
}

// ended reports whether every receiver has ended.
func (s *Swarm) ended() bool { return s.ends.Load() == int64(len(s.recvs)) }

// endErr joins why each receiver ended, in flow order.
func (s *Swarm) endErr() error {
	errs := make([]error, 0, len(s.recvs))
	for _, r := range s.recvs {
		r.mu.Lock()
		errs = append(errs, r.core.err)
		r.mu.Unlock()
	}
	return errors.Join(errs...)
}

// helloStep is one tick of the hello driver at instant now: it drives the
// storm transitions, the hellos and the probes, waking only the receivers
// with something due. The invariant: a receiver has at most one live timer,
// armed at its next relevant instant (armLocked) by whoever moves that
// instant, under the receiver's lock. A timer may outlive its reason —
// data moves it only to bring a probe forward (handle) — and then fires
// once into a step that finds nothing due, and re-arms. The wheel fires
// on its own grid, up to one wheel tick after a deadline, which could
// cost a hello a whole hello tick; so the wheel is run one wheel tick
// ahead, and the due tests in stepLocked — they are the rule: a deadline
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
		h, send := s.stepLocked(r, now)
		s.armLocked(r)
		r.mu.Unlock()
		if send {
			s.out[r.sock].send(h)
		}
	}
}

// stepLocked applies r's storm transitions due at now, then takes its
// hello or its probe if one is due.
//
//pelsvet:noalloc
func (s *Swarm) stepLocked(r *swarmReceiver, now time.Time) (Header, bool) {
	if r.stormArmed && !now.Before(s.stormAt) {
		r.stormArmed = false
		r.muted = true
		r.resumeAt = now.Add(s.cfg.Storm.Resume)
	}
	if r.muted && !now.Before(r.resumeAt) {
		// The dark window ended: come back as a fresh session and
		// re-hello immediately — the whole cohort resumes in one wave on
		// purpose.
		r.muted = false
		r.core.reset(now)
	}
	if r.muted {
		return Header{}, false
	}
	if s.probingLocked(r) {
		return s.probeLocked(r, now)
	}
	done := r.core.done
	h, send := r.core.hello(now)
	if r.core.done != done {
		s.ends.Add(1) // the hello budget ran out
	}
	return h, send
}

// probingLocked reports whether r's probe is armed: the swarm probes, and r
// streams.
func (s *Swarm) probingLocked(r *swarmReceiver) bool {
	return s.cfg.ProbeIdle > 0 && !r.core.done && r.core.streaming
}

// probeLocked re-echoes r's last label once the stream has been idle for
// the probe's wait, and doubles the wait toward 8·ProbeIdle. A stream with
// no label yet has nothing to echo; its due probe only restarts the wait.
//
//pelsvet:noalloc
func (s *Swarm) probeLocked(r *swarmReceiver, now time.Time) (Header, bool) {
	if now.Before(r.quietFrom.Add(r.probeWait)) {
		return Header{}, false
	}
	r.quietFrom = now
	fb := r.core.st.LastFeedback
	if !fb.Valid {
		return Header{}, false
	}
	r.probeWait = min(2*r.probeWait, 8*s.cfg.ProbeIdle)
	r.core.st.Probes++
	return r.core.echo(fb, now), true
}

// byFlow orders timers by their receiver's flow.
func byFlow(a, b *timewheel.Timer[swarmReceiver]) int {
	//pelsvet:allow guarded flow is written once, before the receiver is shared
	return cmp.Compare(a.Owner.core.flow, b.Owner.core.flow)
}

// armLocked moves r's timer to the next instant a tick has work for it:
// the storm while armed for it, the end of the dark window while muted,
// the next hello while helloing, the next probe while streaming with the
// probe armed; nothing else while streaming, nor once done.
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
	var next time.Time
	switch {
	case r.muted:
	case r.core.helloing():
		next = r.core.nextHello
	case s.probingLocked(r):
		next = r.quietFrom.Add(r.probeWait)
	}
	if !next.IsZero() && (at.IsZero() || next.Before(at)) {
		at = next
	}
	if at.IsZero() {
		s.wheel.Cancel(&r.timer)
		return
	}
	s.wheel.Reset(&r.timer, at)
}

// handle applies one datagram received on socket idx.
//
//pelsvet:noalloc
func (s *Swarm) handle(idx int, b []byte, now time.Time) {
	h, _, err := DecodeDatagram(b)
	if err != nil {
		s.decodeErrors.Add(1)
		return
	}
	// Flows are contiguous from FirstFlow; one below it wraps past the end.
	i := h.Flow - s.cfg.FirstFlow
	if i >= uint32(len(s.recvs)) {
		return
	}
	r := s.recvs[i]
	var echo Header
	var send bool
	r.mu.Lock()
	switch {
	case r.muted:
		// Mid-storm receivers are dead hosts: everything is dropped
		// unanswered, so the server's idle reaper sees true silence.
	case h.Type == TypeData && !r.core.done:
		if r.sock != idx {
			r.core.st.CrossDeliveries++
		}
		r.core.st.SteadyBytes += uint64(len(b))
		// Data restarts the probe's wait. That moves its deadline earlier
		// only when the datagram starts the stream or ends a probed
		// silence; otherwise the armed timer is early, and re-arms.
		rearm := s.cfg.ProbeIdle > 0 && (!r.core.streaming || r.probeWait != s.cfg.ProbeIdle)
		r.quietFrom, r.probeWait = now, s.cfg.ProbeIdle
		echo, send = r.core.OnData(h, len(b), now)
		if rearm {
			s.armLocked(r)
		}
	case h.Type == TypeReject, h.Type == TypeClose:
		done := r.core.done
		r.core.onControl(h, now)
		if r.core.done != done {
			s.ends.Add(1)
		}
		s.armLocked(r)
	}
	r.mu.Unlock()
	if send {
		s.out[r.sock].send(echo)
	}
}

// MarkSteady resets every receiver's steady-state window to now; call it
// once the ramp has settled so SteadyRate measures converged throughput.
func (s *Swarm) MarkSteady(now time.Time) {
	for _, r := range s.recvs {
		r.mu.Lock()
		r.core.st.SteadyBytes = 0
		r.core.st.SteadyAt = now
		r.mu.Unlock()
	}
}

// DecodeErrors counts the datagrams the swarm's sockets read that did not
// decode.
func (s *Swarm) DecodeErrors() uint64 { return s.decodeErrors.Load() }

// Stats snapshots every receiver, ordered by flow ID.
func (s *Swarm) Stats() []ReceiverStats {
	out := make([]ReceiverStats, 0, len(s.recvs))
	for _, r := range s.recvs {
		r.mu.Lock()
		out = append(out, r.core.Stats())
		r.mu.Unlock()
	}
	return out
}

// echoWriter is one socket's write path to the server: the lock
// serializes encode and write so one buffer serves every datagram. Encode
// and write errors are dropped like the rest of the datagram path:
// feedback is redundant by design (paper §5.2), and a lost hello is
// retried.
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

// readLoop reads conn until ctx is canceled, handing each datagram to
// handle with its arrival instant — one clock read per datagram, which
// also bases the next read deadline, at most 50 ms out.
func readLoop(ctx context.Context, conn net.PacketConn, handle func(b []byte, now time.Time)) error {
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
