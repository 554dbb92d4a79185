package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/timewheel"
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
	// unanswered hello doubles the wait from HelloRetry toward this cap,
	// and a Reject's retry-after hint floors the next one. 0 selects
	// 8·HelloRetry.
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

// SwarmReceiverStats is one swarm receiver's snapshot: the ReceiverStats
// a Receiver reports too.
type SwarmReceiverStats = ReceiverStats

// swarmReceiver is one synthetic receiver: the receiver core plus the
// swarm's storm state and its one timer, small enough for ten thousand
// instances.
type swarmReceiver struct {
	sock int

	mu         sync.Mutex
	core       recvCore
	stormArmed bool // selected for the storm, not yet fired
	muted      bool // mid-storm: drop everything, send nothing
	resumeAt   time.Time
	// timer is the receiver's one entry on the swarm's wheel; see
	// Swarm.armLocked for when it is live and where.
	timer timewheel.Timer[swarmReceiver]
}

// Swarm drives Receivers synthetic PELS receivers against one server.
// Run costs one goroutine per socket besides its own, regardless of the
// receiver count.
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
		pol:   helloPolicy{retry: cfg.HelloRetry, max: cfg.HelloBackoffMax, reconnect: cfg.Reconnect},
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

// Run drives the swarm until ctx is canceled, then closes the sockets: a
// read loop per socket hands each datagram to its receiver, and the
// caller's goroutine runs the hello driver on its tick.
func (s *Swarm) Run(ctx context.Context) error {
	defer s.closeSocks()
	errCh := make(chan error, len(s.out))
	var wg sync.WaitGroup
	for i := range s.out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle := func(b []byte, now time.Time) { s.handle(i, b, now) }
			if err := readLoop(ctx, s.out[i].conn, handle, nil); err != nil && ctx.Err() == nil {
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
		case <-ctx.Done():
			wg.Wait()
			close(errCh)
			return <-errCh
		}
	}
}

// helloStep is one tick of the hello driver at instant now: it drives the
// storm transitions and the hellos, waking only the receivers with
// something due. The invariant: a receiver has at most one live timer,
// armed at its next relevant instant (armLocked) by whoever moves that
// instant, under the receiver's lock. A timer may outlive its reason —
// first data does not touch the wheel — and then fires once into a step
// that finds nothing due. The wheel fires on its own grid, up to one wheel
// tick after a deadline, which could cost a hello a whole hello tick; so
// the wheel is run one wheel tick ahead, and the due tests in stepLocked —
// they are the rule: a deadline takes effect on the first tick at or after
// it — send the early ones back to fire again on the next tick. Receivers
// are stepped in flow order.
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
// hello if one is due.
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
	return r.core.hello(now)
}

// byFlow orders timers by their receiver's flow.
func byFlow(a, b *timewheel.Timer[swarmReceiver]) int {
	//pelsvet:allow guarded flow is written once, before the receiver is shared
	return cmp.Compare(a.Owner.core.flow, b.Owner.core.flow)
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
	if !r.muted && r.core.helloing() && (at.IsZero() || r.core.nextHello.Before(at)) {
		at = r.core.nextHello
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
		echo, send = r.core.onData(h, len(b), now)
	case h.Type == TypeReject, h.Type == TypeClose:
		r.core.onControl(h, now)
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

// Stats snapshots every receiver, ordered by flow ID.
func (s *Swarm) Stats() []ReceiverStats {
	out := make([]ReceiverStats, 0, len(s.recvs))
	for _, r := range s.recvs {
		r.mu.Lock()
		out = append(out, r.core.snapshot())
		r.mu.Unlock()
	}
	return out
}
