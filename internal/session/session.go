package session

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// Config parameterizes one session's control loops: the paper's end host
// minus the transport and clock (its driver owns those: the server, shared
// across sessions, or a simulator's pels.Source).
type Config struct {
	// Frame is the FGS packetization; PacketSize is the on-wire datagram
	// size and must exceed the wire header size.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period.
	FrameInterval time.Duration
	// MKC parameterizes the per-session rate controller. Zero value
	// selects cc.DefaultMKCConfig.
	MKC cc.MKCConfig
	// ControllerFactory, when set, builds the session's rate controller in
	// place of MKC (e.g. cc.AIMD); MKC then only floors the stale decay.
	// PELS is explicitly independent of the congestion controller (paper
	// §5). A factory rather than an instance, so one Config can
	// parameterize many sessions.
	ControllerFactory func() cc.Controller
	// Gamma parameterizes the red-fraction controller. Zero value selects
	// fgs.DefaultGammaConfig.
	Gamma fgs.GammaConfig
	// RedShare selects the γ denominator; 0 means fgs.RedShareTotal.
	RedShare fgs.RedShare
	// Layers is the number of priority layers each frame is split into,
	// in [2, packet.MaxLayers]; 0 selects 3, the paper's green/yellow/red.
	// Every frame is planned by fgs.Packetizer.PlanLadder, whose split
	// points run from the enhancement's share of the frame down to γ, so
	// every layer carries packets; for 3 layers it is exactly the paper's
	// single-γ split. Layer l travels the wire colored packet.LayerColor(l).
	Layers int
	// BestEffort sends every enhancement layer colored packet.BestEffort
	// instead of its layer's color, the paper's §6.5 baseline: the base
	// layer stays green (the baseline "magically" protects it), and a
	// bottleneck without PELS marking drops the rest uniformly at random.
	BestEffort bool
	// NewScaler builds the per-session frame scaler (scalers are
	// stateful, so sessions cannot share one); nil means ConstantScaler.
	NewScaler func() fgs.Scaler
	// BurstBytes is the token-bucket size; 0 means 8 datagrams.
	BurstBytes int
	// MaxFrames stops the session after that many frames; 0 streams
	// until drained or reaped.
	MaxFrames int
	// StaleTimeout arms the per-session stale-feedback watchdog: when no
	// fresh feedback has been accepted for this long, the session halves
	// its effective rate, once per elapsed horizon, never below the MKC
	// minimum rate. The first accepted feedback restores the controller
	// rate in full (the controller state itself is never decayed, only the
	// pacing on top of it). 0 disables it.
	StaleTimeout time.Duration
}

// WithDefaults fills zero-valued fields. An unset MKC.MaxRate becomes R_max
// (fgs.SenderConfig.MKC).
func (c Config) WithDefaults() Config {
	if c.FrameInterval <= 0 {
		c.FrameInterval = 20 * time.Millisecond
	}
	sc := c.sender().WithDefaults()
	c.Frame, c.Gamma, c.RedShare, c.Layers = sc.Frame, sc.Gamma, sc.RedShare, sc.Layers
	c.MKC = sc.MKC(c.MKC)
	if c.BurstBytes <= 0 {
		c.BurstBytes = 8 * c.Frame.PacketSize
	}
	return c
}

// sender returns the part of the config the session's fgs.Sender plans
// with.
func (c Config) sender() fgs.SenderConfig {
	return fgs.SenderConfig{Frame: c.Frame, FrameInterval: c.FrameInterval, Gamma: c.Gamma,
		RedShare: c.RedShare, Layers: c.Layers, NewScaler: c.NewScaler}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.sender().Validate(); err != nil {
		return err
	}
	if c.Frame.PacketSize <= wire.HeaderSize {
		return fmt.Errorf("session: packet size %d must exceed header size %d",
			c.Frame.PacketSize, wire.HeaderSize)
	}
	if c.Frame.PacketSize > wire.MaxDatagram {
		return fmt.Errorf("session: packet size %d exceeds max datagram %d",
			c.Frame.PacketSize, wire.MaxDatagram)
	}
	return nil
}

// State is a session's lifecycle position.
type State int32

const (
	// StateStreaming: admitted by a hello, frames flowing.
	StateStreaming State = iota + 1
	// StateDraining: shutdown requested; the session finishes the frame
	// in flight and then closes instead of being cut mid-frame.
	StateDraining
	// StateClosed: done (completed, drained, or reaped). Terminal.
	StateClosed
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateStreaming:
		return "streaming"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Stats is a snapshot of one session's counters and control state.
type Stats struct {
	Key              Key
	State            State
	Frames           int
	Datagrams        uint64
	Bytes            uint64
	FeedbackAccepted uint64
	Rate             units.BitRate
	Gamma            float64
	LastLoss         float64
	StaleDecays      uint64
	Recoveries       uint64
	RouterChanges    uint64
	Degrade          float64
	// Shed counts planned datagrams dropped at the source by the
	// server-wide overload controller instead of being sent.
	Shed uint64
	// CloseReason records why a closed session ended (none while live).
	CloseReason wire.Reason
}

// minDegrade bounds the watchdog multiplier so a long outage cannot
// underflow it: ten halvings is far below any useful video rate, and the
// MKC minimum floors the effective rate anyway.
const minDegrade = 1.0 / 1024

// Session is one receiver's PELS stream, the end host of both stacks: the
// driver of its own fgs.Sender (MKC, γ and the frame plan), with a
// sequence space per wire color and a token bucket, sharing the server's
// socket and bottleneck with every other session (the simulator's
// pels.Source drives one through Pump). At each frame boundary the sender
// sizes x_i from the session's effective rate and splits it by the γ
// ladder (paper §4.2, Fig. 4). The feedback labels the receiver echoes go
// to the sender, as ACKs do in the simulator.
//
// A Session owns no buffer. A datagram is encoded at the instant it is
// written, into the scratch of the worker that pumps it, and its header is
// written straight from the session's fields.
//
// A Session owns no goroutine either: it is a pump state machine. The
// wheel fires it, pump sends whatever the token bucket allows at that
// instant, and returns the next deadline to arm. One session is pumped by
// at most one worker at a time (it has exactly one wheel timer), but
// feedback dispatch and stats run concurrently, so all state is guarded
// by mu.
//
// Every instant a session keeps — its watchdogs', its frame gate, its
// bucket's, the deadline pump returns — is a time.Duration on one integer
// timeline counted from origin, the server wheel's origin (Timer.At's
// timeline). Each time.Time handed in is converted once, Pump takes its
// instant on the timeline already, and the per-datagram arithmetic is on
// integers.
type Session struct {
	key  Key
	peer net.Addr
	cfg  Config
	out  wire.PacketWriter

	// timer is the session's one wheel entry, embedded so a wake touches
	// the session's own cache lines. Handed over last in Server.admit;
	// after that it is in the admission lane, in the wheel, or in one chunk
	// on its way through a worker.
	timer Timer

	mu    sync.Mutex
	state State
	seq   [wire.SeqSpaces]uint64 // next sequence number per wire color, indexed by wire.SeqSpace
	stats Stats

	bucket   wire.Bucket //pelsvet:guards mu — the token bucket; mu is its only lock
	reserved bool        //pelsvet:guards mu — the sender's next packet is charged to the bucket, not yet encoded

	// shedLevel points at the server-wide overload level (write-once
	// before the session is pumped, read atomically per pump); nil means
	// no overload controller.
	shedLevel *atomic.Int32

	// origin is the zero of the session's timeline (immutable): the
	// server wheel's origin, or NewSession's now.
	origin time.Time

	// The instants below are durations since origin.
	degrade        float64       //pelsvet:guards mu
	lastFeedbackAt time.Duration //pelsvet:guards mu
	lastDecayAt    time.Duration //pelsvet:guards mu — last stale decay; at or before lastFeedbackAt means none since
	lastActivity   time.Duration //pelsvet:guards mu
	lastSendAt     time.Duration //pelsvet:guards mu — stuck watchdog: last datagram on the wire
	closeReason    wire.Reason   //pelsvet:guards mu — why the session closed
	frameGateAt    time.Duration //pelsvet:guards mu — earliest next frame start, enforced while shedding

	// snd is last: its per-packet fields lead it, so a wake reads them on
	// the cache lines of the fields above, and the controller and γ behind
	// them are read only per frame and per label.
	snd fgs.Sender //pelsvet:guards mu — controller, γ and the frame in flight
}

// NewSession builds a session streaming to peer through out, with its
// clocks anchored at now, which is also the origin of its timeline. cfg
// must already be defaulted and validated (the server does both once per
// template, not per hello).
func NewSession(key Key, peer net.Addr, out wire.PacketWriter, cfg Config, now time.Time) (*Session, error) {
	return newSession(key, peer, out, cfg, now, now)
}

// newSession is NewSession on the timeline that starts at origin (the
// server's: its wheel's origin), with its clocks anchored at now.
func newSession(key Key, peer net.Addr, out wire.PacketWriter, cfg Config, origin, now time.Time) (*Session, error) {
	at := now.Sub(origin)
	s := &Session{
		key:     key,
		peer:    peer,
		cfg:     cfg,
		out:     out,
		state:   StateStreaming,
		origin:  origin,
		degrade: 1,
		// On the timeline zero is a real instant, so "never" for the last
		// decay and for the frame gate is the admission instant: no decay
		// since the last feedback, and no frame gated.
		lastFeedbackAt: at,
		lastDecayAt:    at,
		lastActivity:   at,
		lastSendAt:     at,
		frameGateAt:    at,
	}
	var ctrl cc.Controller
	if cfg.ControllerFactory != nil {
		ctrl = cfg.ControllerFactory()
	}
	if ctrl == nil {
		ctrl = cc.NewMKC(cfg.MKC)
	}
	if err := s.snd.Init(cfg.sender(), ctrl); err != nil {
		return nil, err
	}
	s.bucket.Init(s.snd.Rate(), cfg.BurstBytes)
	s.stats.Key = key
	s.timer.Owner = s
	return s, nil
}

// Key returns the session's table key.
func (s *Session) Key() Key { return s.key }

// setShedLevel attaches the server's overload level. Must be called
// before the session is pumped.
func (s *Session) setShedLevel(lvl *atomic.Int32) { s.shedLevel = lvl }

// Peer returns the receiver's address.
func (s *Session) Peer() net.Addr { return s.peer }

// scratch is what one worker goroutine owns and lends to every pump it
// makes: the buffer each datagram is encoded into, and a tally of what the
// pumps sent and shed since the worker last added it to the server's
// counters (Server.flush, once per chunk).
type scratch struct {
	buf       []byte
	datagrams uint64
	bytes     uint64
	shed      uint64
}

// newScratch sizes the buffer for the largest datagram any session config
// can ask for, so no pump ever grows it.
func newScratch() *scratch {
	return &scratch{buf: make([]byte, 0, wire.MaxDatagram)}
}

// pump advances the session at instant now: it writes the datagram the
// previous wake charged to the bucket, plans frames as their budgets open,
// and charges and writes until the token bucket pushes back. Datagrams are
// encoded into w.buf and counted in w. It returns the next deadline to arm,
// on the session's timeline (Timer.At's), and done=true when the session
// reached its terminal state (worker removes it from the table).
//
//pelsvet:noalloc
func (s *Session) pump(now time.Time, w *scratch) (next time.Duration, done bool) {
	return s.pumpAt(now.Sub(s.origin), now.UnixNano(), w)
}

// Pump is pump for a driver of one session with no server counters to
// tally (pels.Source), at instant at on the session's timeline — the one
// the returned deadline is on — so its driver keeps no time.Time. Each
// datagram is stamped with the UNIX ns of origin + at. Datagrams are
// encoded into buf, which must have room for one of Frame.PacketSize bytes.
//
//pelsvet:noalloc
func (s *Session) Pump(at time.Duration, buf []byte) (next time.Duration, done bool) {
	w := scratch{buf: buf}
	return s.pumpAt(at, s.origin.UnixNano()+int64(at), &w)
}

// pumpAt is pump at instant at on the session's timeline, stamping each
// datagram with stamp, the UNIX ns of that instant.
//
//pelsvet:noalloc
func (s *Session) pumpAt(at time.Duration, stamp int64, w *scratch) (next time.Duration, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return 0, true
	}
	s.checkStaleLocked(at)
	shed := s.shedLevelNow()
	for {
		if s.reserved {
			// The previous wake charged the bucket for this datagram and
			// its wait has now elapsed. What it is was settled when it was
			// charged: a shed level raised since does not take it back.
			if !s.sendLocked(stamp, at, w) {
				return 0, true
			}
			continue
		}
		if s.snd.Pending() == 0 {
			// Frame boundary.
			if s.cfg.MaxFrames > 0 && s.snd.Frames() >= s.cfg.MaxFrames {
				s.state = StateClosed
				s.closeReason = wire.ReasonComplete
				return 0, true
			}
			if s.state == StateDraining {
				s.state = StateClosed
				return 0, true
			}
			if shed > 0 && at < s.frameGateAt {
				// While shedding, frames no longer fill the token bucket,
				// so bucket self-clocking alone would run the frame
				// counter fast; hold the boundary to the frame cadence.
				return s.frameGateAt, false
			}
			n := s.snd.PlanFrame(s.effectiveRateLocked())
			s.frameGateAt = at + s.cfg.FrameInterval
			if n == 0 {
				// Degenerate budget: idle one frame interval instead of
				// spinning.
				return s.frameGateAt, false
			}
		}
		if shed > 0 && s.snd.Layer() >= max(s.cfg.Layers-shed, 1) {
			// Overload: level n drops the top n layers at the source, never
			// the base — uncharged against the bucket, invisible to the
			// receiver's per-color loss (no sequence number is consumed).
			s.snd.Take()
			s.stats.Shed++
			w.shed++
			continue
		}
		if wait := s.bucket.Reserve(s.cfg.Frame.PacketSize, at); wait > 0 {
			s.reserved = true
			return at + wait, false
		}
		if !s.sendLocked(stamp, at, w) {
			return 0, true
		}
	}
}

// shedLevelNow reads the server-wide overload level (0 when the server
// runs without an overload controller).
func (s *Session) shedLevelNow() int {
	if s.shedLevel == nil {
		return 0
	}
	if lvl := s.shedLevel.Load(); lvl > 0 {
		return int(lvl)
	}
	return 0
}

// sendLocked encodes the sender's next packet into w.buf and writes it to
// out. The packet was charged to the bucket and its wait is over. stamp is
// the UNIX ns of the instant it is handed to out, at on the timeline.
// wire.AppendData writes the header straight from the session's fields,
// and the payload is PacketSize − HeaderSize zero bytes. It reports false,
// with the session closed, if the datagram does not encode: unreachable
// with a validated config, but a session that cannot send must end rather
// than spin.
//
//pelsvet:noalloc
func (s *Session) sendLocked(stamp int64, at time.Duration, w *scratch) bool {
	frame, index, layer := s.snd.Take()
	color := packet.LayerColor(layer)
	if s.cfg.BestEffort && layer > 0 {
		color = packet.BestEffort
	}
	space, _ := wire.SeqSpace(color)
	b, err := wire.AppendData(w.buf[:0], color, s.key.Flow, uint32(frame), uint16(index),
		s.seq[space], stamp, s.cfg.Frame.PacketSize-wire.HeaderSize)
	if err != nil {
		s.state = StateClosed
		s.closeReason = wire.ReasonBadConfig
		return false
	}
	// Write errors have nowhere to go — the shaping link models loss, and
	// a vanished receiver is collected by the idle reaper.
	_, _ = s.out.WriteTo(b, s.peer)
	s.seq[space]++
	s.reserved = false
	s.lastSendAt = at
	s.stats.Datagrams++
	s.stats.Bytes += uint64(len(b))
	w.datagrams++
	w.bytes += uint64(len(b))
	return true
}

// effectiveRateLocked is the controller rate scaled by the watchdog
// multiplier. A decay never takes it below the MKC minimum rate, nor
// raises it above the controller's.
func (s *Session) effectiveRateLocked() units.BitRate {
	r := s.snd.Rate()
	if s.degrade == 1 {
		return r
	}
	return max(units.BitRate(float64(r)*s.degrade), min(r, s.cfg.MKC.MinRate))
}

// checkStaleLocked runs the stale-feedback watchdog: past StaleTimeout
// without accepted feedback, decay the effective rate once per elapsed
// horizon until feedback returns.
func (s *Session) checkStaleLocked(at time.Duration) {
	if s.cfg.StaleTimeout <= 0 {
		return
	}
	if at-s.lastFeedbackAt < s.cfg.StaleTimeout {
		return
	}
	if at-s.lastDecayAt < s.cfg.StaleTimeout {
		return // at most one decay per horizon
	}
	s.lastDecayAt = at
	if s.degrade /= 2; s.degrade < minDegrade {
		s.degrade = minDegrade
	}
	s.stats.StaleDecays++
	s.bucket.SetRate(s.effectiveRateLocked(), at)
}

// HandleFeedback offers one feedback label to the session at instant now:
// the sender's MKC and γ step (epoch dedup, γ reset on router change),
// watchdog recovery, pacer retarget. It reports whether the label was
// fresh.
func (s *Session) HandleFeedback(fb packet.Feedback, now time.Time) bool {
	at := now.Sub(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handleFeedbackLocked(fb, at)
}

// HandleFeedbackBatch applies a batch of labels in order, all at instant
// now, returning how many were fresh. Any feedback, fresh or duplicate,
// counts as receiver activity for the idle reaper. The server applies each
// label on arrival through HandleFeedback; the benchmark uses this.
func (s *Session) HandleFeedbackBatch(fbs []packet.Feedback, now time.Time) int {
	at := now.Sub(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted := 0
	for _, fb := range fbs {
		if s.handleFeedbackLocked(fb, at) {
			accepted++
		}
	}
	return accepted
}

func (s *Session) handleFeedbackLocked(fb packet.Feedback, at time.Duration) bool {
	if !fb.Valid || s.state == StateClosed {
		return false
	}
	s.lastActivity = at
	accepted, routerChanged := s.snd.OnFeedback(fb)
	if !accepted {
		return false
	}
	s.lastFeedbackAt = at
	if s.degrade != 1 {
		s.degrade = 1
		s.stats.Recoveries++
	}
	if routerChanged {
		s.stats.RouterChanges++
	}
	s.stats.FeedbackAccepted++
	s.bucket.SetRate(s.effectiveRateLocked(), at)
	return true
}

// Touch records receiver activity (a duplicate hello) for the reaper.
func (s *Session) Touch(now time.Time) {
	at := now.Sub(s.origin)
	s.mu.Lock()
	s.lastActivity = at
	s.mu.Unlock()
}

// Drain asks the session to finish the frame in flight and then close.
func (s *Session) Drain() {
	s.mu.Lock()
	if s.state == StateStreaming {
		s.state = StateDraining
		s.closeReason = wire.ReasonDraining
	}
	s.mu.Unlock()
}

// expireIdle closes the session if its receiver has been silent for at
// least idle, reporting whether it did. Already-closed sessions report
// false (their removal is the worker's job).
func (s *Session) expireIdle(now time.Time, idle time.Duration) bool {
	at := now.Sub(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed || at-s.lastActivity < idle {
		return false
	}
	s.state = StateClosed
	s.closeReason = wire.ReasonIdle
	return true
}

// expireStuck closes a session the stuck watchdog caught: neither an
// accepted feedback label nor a datagram on the wire for the whole
// window. Such a session holds a table slot while making no progress —
// distinct from idle (expireIdle fires on receiver silence even while
// the pump still sends). Reports whether it closed the session here.
func (s *Session) expireStuck(now time.Time, window time.Duration) bool {
	if window <= 0 {
		return false
	}
	at := now.Sub(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return false
	}
	if at-s.lastFeedbackAt < window || at-s.lastSendAt < window {
		return false
	}
	s.state = StateClosed
	s.closeReason = wire.ReasonStuck
	return true
}

// CloseReason reports why the session closed (ReasonNone while live).
func (s *Session) CloseReason() wire.Reason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeReason
}

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Rate returns the controller's current rate.
func (s *Session) Rate() units.BitRate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snd.Rate()
}

// Gamma returns the γ controller's current red fraction.
func (s *Session) Gamma() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snd.Gamma()
}

// Stats returns a snapshot of the session's counters and control state.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.State = s.state
	st.Frames = s.snd.Frames()
	st.Rate = s.snd.Rate()
	st.Gamma = s.snd.Gamma()
	st.LastLoss = s.snd.Controller().LastLoss()
	st.Degrade = s.degrade
	st.CloseReason = s.closeReason
	return st
}
