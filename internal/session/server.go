package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// ServerConfig parameterizes the multi-session server.
type ServerConfig struct {
	// Conn is the server socket: hellos and feedback are read from it.
	// Required.
	Conn net.PacketConn
	// Out is where sessions write data datagrams — normally the
	// wire.ShapedConn wrapping Conn, so every session shares one
	// software bottleneck. Nil means Conn itself (no shaping).
	Out wire.PacketWriter
	// Clock supplies every instant and every blocking wait. Required
	// (wire.SystemClock in production).
	Clock Clock
	// Session is the per-session template; it is defaulted and validated
	// once at server construction.
	Session Config
	// Tune, if non-nil, adjusts the template per admitted session (e.g.
	// per-flow MKC weights). The tuned config is re-validated; a config
	// Tune breaks rejects the hello instead of panicking the server.
	Tune func(key Key, cfg *Config)
	// Shards is the session-table shard count; 0 selects 8.
	Shards int
	// MaxSessions bounds concurrent sessions; hellos beyond it are
	// rejected. 0 selects 8192.
	MaxSessions int
	// IdleTimeout reaps sessions whose receiver has been silent (no
	// feedback, no hello) for this long; 0 selects 10s, negative
	// disables reaping.
	IdleTimeout time.Duration
	// StuckTimeout arms the per-session stuck watchdog: a session with
	// neither accepted feedback nor a datagram sent for this long is
	// reaped with Close(stuck). 0 disables.
	StuckTimeout time.Duration
	// RejectRetryAfter is the retry-after hint carried by Reject
	// datagrams; 0 selects 500ms, negative sends no hint.
	RejectRetryAfter time.Duration
	// Overload parameterizes server-wide graceful layer shedding; the
	// zero value (Capacity 0) disables it.
	Overload OverloadConfig
	// WheelTick is the pacing wheel granularity; 0 selects 1ms. Sends
	// quantize to it: a coarser tick means burstier pacing, never a
	// lower rate (the token bucket repays elapsed time).
	WheelTick time.Duration
	// WheelSlots is the wheel size; 0 selects 512 (a .5s horizon at the
	// default tick, beyond every per-session deadline).
	WheelSlots int
	// Workers is the pump goroutine pool size; 0 selects 4. Together
	// with the wheel driver, the demux loop and a parked collector
	// (collectQuiet) this is the server's entire goroutine budget —
	// independent of the session count.
	Workers int
	// BatchCount flushes the feedback batcher at this many items; 0
	// selects 64.
	BatchCount int
	// BatchWait bounds how long a partial feedback batch may wait; 0
	// selects 2ms.
	BatchWait time.Duration
	// ExitWhenIdle makes Run return once at least one session has been
	// admitted and the table drains to empty — the single-shot pelsd and
	// load-test mode. Off, the server serves until its context ends.
	ExitWhenIdle bool
	// Obs, if non-nil, registers the server's aggregate counters and
	// gauges under the "session." prefix. Per-shard registries live on
	// the table regardless (Server.Table().Registries()).
	Obs *obs.Registry
}

// withDefaults fills zero-valued fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.Out == nil {
		c.Out = c.Conn
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8192
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.WheelTick <= 0 {
		c.WheelTick = time.Millisecond
	}
	if c.WheelSlots <= 0 {
		c.WheelSlots = 512
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BatchCount <= 0 {
		c.BatchCount = 64
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	switch {
	case c.RejectRetryAfter == 0:
		c.RejectRetryAfter = 500 * time.Millisecond
	case c.RejectRetryAfter < 0:
		c.RejectRetryAfter = 0
	}
	c.Session = c.Session.WithDefaults()
	return c
}

// ServerStats is a snapshot of the server's aggregate counters.
type ServerStats struct {
	Active          int
	Datagrams       uint64
	Bytes           uint64
	Admitted        uint64
	Completed       uint64
	Reaped          uint64
	ReapedStuck     uint64
	Rejected        uint64
	RejectedFull    uint64
	RejectedDrain   uint64
	RejectedConfig  uint64
	AdmitRaces      uint64
	AdmitFallbacks  uint64 // admissions that found the lane full and wait for the next tick
	Hellos          uint64
	FeedbackItems   uint64
	FeedbackBatches uint64
	WheelTimers     int
	// Overload controller view: current shed level, last load score, and
	// how many shed/restore transitions have happened.
	ShedLevel int
	Load      float64
	Sheds     uint64
	Restores  uint64
}

// demuxPoll bounds the demux read timeout so context cancellation and
// batch deadlines are observed promptly even on a silent socket.
const demuxPoll = 20 * time.Millisecond

// pumpChunk is the most fired sessions the driver hands a worker in one
// job. A worker pays one channel receive, one clock read, one wheel lock
// and one driver kick per chunk, so the hand-off costs a datagram
// 1/len(chunk) of each. A tick that fires no more than this is pumped by
// one worker in wheel order, which keeps a session's position in its tick
// — and so its pacing — the same from tick to tick; only a larger tick is
// split across workers. 1024 is above what the default MaxSessions fires
// per 1 ms tick at one datagram per 10 ms, and 8 KB of pointers a buffer.
const pumpChunk = 1024

// admitLane is the capacity of the admission lane: room for the hellos that
// arrive while every worker is inside a chunk. A full chunk is pumped in well
// under a millisecond and churn-mem's 800 hellos/s is under one a
// millisecond, so the lane is all but empty in service; a storm beyond it
// falls back to the wheel, so the size bounds memory, never admission.
const admitLane = 256

// collectQuiet is how long admissions must have been silent before the
// driver asks for one garbage collection. A server in service allocates
// nothing, so no cycle runs on its own account, and the Go pacer keeps the
// picture of the heap — goal and expected scan work — that the last cycle
// of construction or of the admission wave left, taken before the sessions
// existed and at a point that differs from run to run. The next cycle,
// whoever's allocations start it, is then paced against too little scan
// work, overruns its goal, and what the process holds at its peak moves
// by a third between otherwise equal runs. One collection once the
// population is in place bases the pacer on the live set. Under steady
// churn admissions never fall silent and nothing is collected.
const collectQuiet = 200 * time.Millisecond

// admitWave is the driver's view of the admitted counter.
type admitWave struct {
	seen uint64
	last time.Time // when seen last moved; zero once that wave has settled
}

// settled reports, once per wave, that admitted moved and has then stood
// still for collectQuiet.
func (w *admitWave) settled(admitted uint64, now time.Time) bool {
	if admitted != w.seen {
		w.seen, w.last = admitted, now
		return false
	}
	if w.last.IsZero() || now.Sub(w.last) < collectQuiet {
		return false
	}
	w.last = time.Time{}
	return true
}

// Server runs the multi-session PELS gateway: one socket, one demux
// goroutine, one wheel driver, and a fixed worker pool pump every
// admitted session. See the package comment for the lifecycle.
type Server struct {
	cfg     ServerConfig
	table   *Table
	wheel   *Wheel
	batcher *Batcher
	// The hand-off: the driver fills a buffer from free with up to
	// pumpChunk fired timers and sends it on jobs; the worker that pumped
	// it sends it back on free. Both channels hold every buffer there is,
	// so only the driver's wait for a free one can block.
	jobs chan []*Timer
	free chan []*Timer
	kick chan struct{}
	// The admission lane: admit sends a new session's timer here and a
	// worker gives it its first pump, so the opening burst leaves one
	// goroutine hop after the hello instead of one tick plus a chunk
	// hand-off later. An admitted session's timer is in the lane, in the
	// wheel, or in exactly one chunk.
	admits chan *Timer
	// collect is the driver's request for one garbage collection
	// (collectQuiet), run off the driver so no tick waits for it.
	collect chan struct{}

	draining atomic.Bool
	started  atomic.Bool

	// datagrams and bytes are what the sessions put on Out, added by each
	// worker once per chunk (flush): they trail the wire by at most the
	// chunk being pumped.
	datagrams   atomic.Uint64
	bytes       atomic.Uint64
	admitted    atomic.Uint64
	completed   atomic.Uint64
	reaped      atomic.Uint64
	reapedStuck atomic.Uint64
	rejected    atomic.Uint64
	rejFull     atomic.Uint64
	rejDraining atomic.Uint64
	rejConfig   atomic.Uint64
	admitRaces  atomic.Uint64
	admitFalls  atomic.Uint64
	hellos      atomic.Uint64
	fbItems     atomic.Uint64
	fbBatches   atomic.Uint64

	// Overload controller state: the controller itself is owned by the
	// driver goroutine; the published level and load are read everywhere.
	overload *Overload // nil when disabled
	shedLvl  atomic.Int32
	loadBits atomic.Uint64 // math.Float64bits of the last load score
	sheds    atomic.Uint64
	restores atomic.Uint64

	// Control datagram scratch: rejects and closes are encoded under
	// ctlMu (demux, driver, and workers all send them) and written
	// straight to Conn, bypassing the shaped data path — a rejection
	// must get out precisely when the bottleneck is saturated.
	ctlMu  sync.Mutex
	ctlBuf []byte

	idleOnce sync.Once
	idleCh   chan struct{}

	// The interned keys, owned by the demux goroutine.
	keys keyTable

	obsDatagrams   *obs.Counter
	obsBytes       *obs.Counter
	obsAdmitted    *obs.Counter
	obsCompleted   *obs.Counter
	obsReaped      *obs.Counter
	obsReapedStuck *obs.Counter
	obsRejected    *obs.Counter
	obsRejFull     *obs.Counter
	obsRejDraining *obs.Counter
	obsRejConfig   *obs.Counter
	obsAdmitRaces  *obs.Counter
	obsAdmitFalls  *obs.Counter
	obsHellos      *obs.Counter
	obsFbItems     *obs.Counter
	obsFbBatches   *obs.Counter
	obsShed        *obs.Counter
	obsSheds       *obs.Counter
	obsRestores    *obs.Counter
	obsCtlSent     *obs.Counter
}

// NewServer validates cfg and builds a server (nothing runs until Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Conn == nil {
		return nil, errors.New("session: ServerConfig.Conn is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("session: ServerConfig.Clock is required (wire.SystemClock in production)")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	now := cfg.Clock.Now()
	s := &Server{
		cfg:     cfg,
		table:   NewTable(cfg.Shards),
		wheel:   NewWheel(cfg.WheelTick, cfg.WheelSlots, now),
		batcher: NewBatcher(cfg.BatchCount, cfg.BatchWait),
		// Two buffers a worker: one being pumped, one queued behind it.
		jobs:    make(chan []*Timer, 2*cfg.Workers),
		free:    make(chan []*Timer, 2*cfg.Workers),
		kick:    make(chan struct{}, 1),
		admits:  make(chan *Timer, admitLane),
		collect: make(chan struct{}, 1),
		idleCh:  make(chan struct{}),
		ctlBuf:  make([]byte, 0, wire.HeaderSize),
		// Twice the sessions there can be: the live receivers always fit,
		// with room for the addresses of sessions that have since ended.
		keys: keyTable{m: make(map[netip.AddrPort]string), max: 2 * cfg.MaxSessions},
	}
	for i := 0; i < cap(s.free); i++ {
		s.free <- make([]*Timer, 0, pumpChunk)
	}
	if cfg.Overload.Enabled() {
		s.overload = NewOverload(cfg.Overload, cfg.Session.Layers)
	}
	if cfg.Obs != nil {
		s.obsDatagrams = cfg.Obs.Counter("session.datagrams")
		s.obsBytes = cfg.Obs.Counter("session.bytes")
		s.obsAdmitted = cfg.Obs.Counter("session.admitted")
		s.obsCompleted = cfg.Obs.Counter("session.completed")
		s.obsReaped = cfg.Obs.Counter("session.reaped")
		s.obsReapedStuck = cfg.Obs.Counter("session.reaped_stuck")
		s.obsRejected = cfg.Obs.Counter("session.rejected")
		s.obsRejFull = cfg.Obs.Counter("session.rejected_full")
		s.obsRejDraining = cfg.Obs.Counter("session.rejected_draining")
		s.obsRejConfig = cfg.Obs.Counter("session.rejected_config")
		s.obsAdmitRaces = cfg.Obs.Counter("session.admit_races")
		s.obsAdmitFalls = cfg.Obs.Counter("session.admit_lane_fallbacks")
		s.obsHellos = cfg.Obs.Counter("session.hellos")
		s.obsFbItems = cfg.Obs.Counter("session.feedback_items")
		s.obsFbBatches = cfg.Obs.Counter("session.feedback_batches")
		s.obsShed = cfg.Obs.Counter("session.shed_datagrams")
		s.obsSheds = cfg.Obs.Counter("session.sheds")
		s.obsRestores = cfg.Obs.Counter("session.restores")
		s.obsCtlSent = cfg.Obs.Counter("session.control_sent")
		cfg.Obs.GaugeFunc("session.active", func() float64 { return float64(s.table.Len()) })
		cfg.Obs.GaugeFunc("session.wheel_timers", func() float64 { return float64(s.wheel.Len()) })
		cfg.Obs.GaugeFunc("session.jobs_depth", func() float64 { return float64(len(s.jobs)) })
		cfg.Obs.GaugeFunc("session.admit_lane_depth", func() float64 { return float64(len(s.admits)) })
		cfg.Obs.GaugeFunc("session.shed_level", func() float64 { return float64(s.shedLvl.Load()) })
		cfg.Obs.GaugeFunc("session.load", func() float64 { return math.Float64frombits(s.loadBits.Load()) })
	}
	return s, nil
}

// Table exposes the session table (read-mostly: stats, shard registries).
func (s *Server) Table() *Table { return s.table }

// Wheel exposes the pacing wheel (diagnostics).
func (s *Server) Wheel() *Wheel { return s.wheel }

// Stats returns a snapshot of the aggregate counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Active:          s.table.Len(),
		Datagrams:       s.datagrams.Load(),
		Bytes:           s.bytes.Load(),
		Admitted:        s.admitted.Load(),
		Completed:       s.completed.Load(),
		Reaped:          s.reaped.Load(),
		ReapedStuck:     s.reapedStuck.Load(),
		Rejected:        s.rejected.Load(),
		RejectedFull:    s.rejFull.Load(),
		RejectedDrain:   s.rejDraining.Load(),
		RejectedConfig:  s.rejConfig.Load(),
		AdmitRaces:      s.admitRaces.Load(),
		AdmitFallbacks:  s.admitFalls.Load(),
		Hellos:          s.hellos.Load(),
		FeedbackItems:   s.fbItems.Load(),
		FeedbackBatches: s.fbBatches.Load(),
		WheelTimers:     s.wheel.Len(),
		ShedLevel:       int(s.shedLvl.Load()),
		Load:            math.Float64frombits(s.loadBits.Load()),
		Sheds:           s.sheds.Load(),
		Restores:        s.restores.Load(),
	}
}

// SessionStats snapshots every live session, sorted by key.
func (s *Server) SessionStats() []Stats {
	var out []Stats
	s.table.Range(func(_ Key, sess *Session) bool {
		out = append(out, sess.Stats())
		return true
	})
	slices.SortFunc(out, func(a, b Stats) int { return a.Key.Compare(b.Key) })
	return out
}

// Run serves until ctx is canceled, the socket fails, or — with
// ExitWhenIdle — the last session completes. It may be called once.
func (s *Server) Run(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("session: Server.Run called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(3 + s.cfg.Workers)
	go func() {
		defer wg.Done()
		if err := s.demux(ctx); err != nil {
			select {
			case errCh <- err:
			default:
			}
			cancel()
		}
	}()
	go func() {
		defer wg.Done()
		s.driver(ctx)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.collect:
				runtime.GC()
			}
		}
	}()
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer wg.Done()
			s.worker(ctx)
		}()
	}

	select {
	case <-ctx.Done():
	case <-s.idleCh:
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Shutdown drains the server gracefully: new hellos are refused, every
// live session finishes its frame in flight and closes, and Shutdown
// returns once the table is empty — or with ctx's error if the deadline
// passes first. Run keeps pumping throughout; cancel its context after
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.table.Range(func(_ Key, sess *Session) bool {
		sess.Drain()
		return true
	})
	for s.table.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("session: %d sessions still draining: %w", s.table.Len(), err)
		}
		_ = s.cfg.Clock.Sleep(ctx, 10*time.Millisecond)
	}
	return nil
}

// origin is where a datagram came from, in the form the socket gave it:
// ap from a socket that reads netip addresses (*net.UDPConn and the
// benchmark's memnet do), addr from any other.
type origin struct {
	ap   netip.AddrPort
	addr net.Addr
}

// netAddr returns the address sessions write to. It allocates for an ap, so
// it is for admission and refusals, never for feedback.
func (o origin) netAddr() net.Addr {
	if o.addr != nil {
		return o.addr
	}
	return net.UDPAddrFromAddrPort(o.ap)
}

// keyTable interns Key.Addr, the text of a source address, per
// netip.AddrPort, so that feedback from an address seen before costs a map
// lookup instead of the three allocations of formatting it. The text is
// byte for byte what ReadFrom's net.Addr would print for the same source, so
// keys made here equal keys made from a net.Addr: IPv4, IPv6 and zoned
// addresses print alike in both forms (zoned ones are interned like any
// other), and the 4-in-6 address a dual-stack socket reports is unmapped
// first, as *net.UDPAddr's String does. It holds at most max entries and
// starts over when full: a flood of spoofed sources costs one formatting per
// datagram, as it always has, and no more memory, and every live receiver is
// back after one miss.
type keyTable struct {
	m   map[netip.AddrPort]string
	max int
}

// addr returns the interned text of ap.
//
//pelsvet:noalloc
func (k *keyTable) addr(ap netip.AddrPort) string {
	if s, ok := k.m[ap]; ok {
		return s
	}
	return k.add(ap)
}

// add formats ap and remembers the text.
func (k *keyTable) add(ap netip.AddrPort) string {
	if len(k.m) >= k.max {
		clear(k.m)
	}
	s := netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
	k.m[ap] = s
	return s
}

// addrPortReader is the netip read of *net.UDPConn.
type addrPortReader interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
}

// demux is the socket read loop: hellos admit sessions, feedback is
// batched and dispatched, everything else is dropped as noise.
func (s *Server) demux(ctx context.Context) error {
	buf := make([]byte, wire.MaxDatagram+1)
	netipConn, _ := s.cfg.Conn.(addrPortReader)
	// Polled without blocking rather than through ctx.Err, which takes the
	// context's lock on every datagram.
	done := ctx.Done()
	for {
		select {
		case <-done:
			return nil
		default:
		}
		now := s.cfg.Clock.Now()
		if batch := s.batcher.Due(now); batch != nil {
			s.dispatch(batch, now)
		}
		deadline := now.Add(demuxPoll)
		if dl, ok := s.batcher.Deadline(); ok && dl.Before(deadline) {
			deadline = dl
		}
		_ = s.cfg.Conn.SetReadDeadline(deadline)
		var (
			n    int
			from origin
			err  error
		)
		if netipConn != nil {
			n, from.ap, err = netipConn.ReadFromUDPAddrPort(buf)
		} else {
			n, from.addr, err = s.cfg.Conn.ReadFrom(buf)
		}
		now = s.cfg.Clock.Now()
		switch {
		case err == nil:
			s.handleDatagram(buf[:n], from, now)
		case errors.Is(err, os.ErrDeadlineExceeded):
		case errors.Is(err, net.ErrClosed):
			// Expected only during shutdown; under a live context the
			// closed socket is a failure the caller must see.
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("session: demux: %w", err)
		default:
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("session: demux: %w", err)
		}
	}
}

// keyOf names the session a datagram from from on flow belongs to.
func (s *Server) keyOf(from origin, flow uint32) Key {
	if from.addr != nil {
		return Key{Addr: from.addr.String(), Flow: flow}
	}
	return Key{Addr: s.keys.addr(from.ap), Flow: flow}
}

// handleDatagram classifies one datagram from the socket.
func (s *Server) handleDatagram(b []byte, from origin, now time.Time) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		return // corrupted or foreign noise
	}
	switch h.Type {
	case wire.TypeHello:
		s.hellos.Add(1)
		if s.obsHellos != nil {
			s.obsHellos.Inc()
		}
		s.admit(from, h.Flow, now)
	case wire.TypeFeedback:
		if !h.Feedback.Valid {
			return
		}
		item := FeedbackItem{Key: s.keyOf(from, h.Flow), FB: h.Feedback}
		if batch := s.batcher.Add(item, now); batch != nil {
			s.dispatch(batch, now)
		}
	}
}

// admit creates (or refreshes) the session for a hello and hands it to a
// worker through the admission lane (to the wheel when the lane is full).
// Refusals are spoken, not silent: each one sends a Reject datagram with
// the reason and a retry-after hint so the receiver can back off and
// re-hello instead of staring at a black hole.
func (s *Server) admit(src origin, flow uint32, now time.Time) {
	key := s.keyOf(src, flow)
	if sess := s.table.Get(key); sess != nil {
		sess.Touch(now) // duplicate hello: receiver is alive
		return
	}
	from := src.netAddr()
	if s.draining.Load() {
		s.reject(key, from, wire.ReasonDraining, now)
		return
	}
	if s.table.Len() >= s.cfg.MaxSessions {
		s.reject(key, from, wire.ReasonServerFull, now)
		return
	}
	cfg := s.cfg.Session
	if s.cfg.Tune != nil {
		s.cfg.Tune(key, &cfg)
		cfg = cfg.WithDefaults()
		if err := cfg.Validate(); err != nil {
			s.reject(key, from, wire.ReasonBadConfig, now)
			return
		}
	}
	sess, err := newSession(key, from, s.cfg.Out, cfg, s.wheel.Origin(), now)
	if err != nil {
		s.reject(key, from, wire.ReasonBadConfig, now)
		return
	}
	sess.setShedLevel(&s.shedLvl)
	if !s.table.Put(key, sess) {
		// A concurrent hello for the same key won the race and its
		// session is live — this duplicate counts as a race, not a
		// rejection, and no Reject goes on the wire.
		s.admitRaces.Add(1)
		if s.obsAdmitRaces != nil {
			s.obsAdmitRaces.Inc()
		}
		return
	}
	s.admitted.Add(1)
	if s.obsAdmitted != nil {
		s.obsAdmitted.Inc()
	}
	if s.draining.Load() {
		// Shutdown may have set the flag between the drain check above and
		// the Put: its drain sweep either saw this session (Put ordered
		// before the sweep's lock) or will be covered by this re-check —
		// either way no admitted session escapes the drain.
		sess.Drain()
	}
	// Handing the timer over is what gives the session to the workers, so
	// it comes last, on a session that is fully built. The lane takes it
	// straight to a worker for its opening burst; demux itself never pumps —
	// a burst is up to BurstBytes of writes on the one goroutine that reads
	// everyone's feedback — and never blocks on the lane either.
	select {
	case s.admits <- &sess.timer:
	default:
		// A hello storm has outrun the workers: the next tick serves the
		// session instead. This is the one place a timer is armed at now
		// rather than at a deadline pump returned.
		s.admitFalls.Add(1)
		if s.obsAdmitFalls != nil {
			s.obsAdmitFalls.Inc()
		}
		s.wheel.Reschedule(&sess.timer, now)
		s.kickDriver()
	}
}

// reject counts one refused hello — aggregate, per-reason, and on the
// shard the key targeted — and answers it with a Reject datagram.
func (s *Server) reject(key Key, to net.Addr, reason wire.Reason, now time.Time) {
	s.rejected.Add(1)
	if s.obsRejected != nil {
		s.obsRejected.Inc()
	}
	var ctr *atomic.Uint64
	var obsCtr *obs.Counter
	switch reason {
	case wire.ReasonServerFull:
		ctr, obsCtr = &s.rejFull, s.obsRejFull
	case wire.ReasonDraining:
		ctr, obsCtr = &s.rejDraining, s.obsRejDraining
	default:
		ctr, obsCtr = &s.rejConfig, s.obsRejConfig
	}
	ctr.Add(1)
	if obsCtr != nil {
		obsCtr.Inc()
	}
	s.table.RecordReject(key, reason)
	retry := s.cfg.RejectRetryAfter
	if reason == wire.ReasonBadConfig {
		retry = 0 // retrying an invalid config cannot succeed
	}
	s.sendControl(wire.TypeReject, key.Flow, reason, retry, to, now)
}

// sendControl encodes and writes one Reject or Close datagram straight
// to the server socket (not the shaped data path). The scratch buffer is
// shared by every caller, so a mutex serializes encode+write; control
// traffic is rare enough that contention here is irrelevant.
func (s *Server) sendControl(t wire.Type, flow uint32, reason wire.Reason, retry time.Duration, to net.Addr, now time.Time) {
	h := wire.ControlHeader(t, flow, reason, retry, now.UnixNano())
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	b, err := wire.AppendDatagram(s.ctlBuf[:0], h, nil)
	if err != nil {
		return // unreachable: ControlHeader is valid by construction
	}
	s.ctlBuf = b
	_, _ = s.cfg.Conn.WriteTo(b, to)
	if s.obsCtlSent != nil {
		s.obsCtlSent.Inc()
	}
}

// dispatch applies one flushed feedback batch in arrival order, one label
// at a time. A session's labels keep their arrival order, which is the
// only order its epoch dedup sees; labels of different sessions never
// meet, so grouping them by key would buy one lock per session at the
// price of a sort per batch.
func (s *Server) dispatch(batch []FeedbackItem, now time.Time) {
	s.fbBatches.Add(1)
	s.fbItems.Add(uint64(len(batch)))
	if s.obsFbBatches != nil {
		s.obsFbBatches.Inc()
		s.obsFbItems.Add(int64(len(batch)))
	}
	for _, it := range batch {
		if sess := s.table.Get(it.Key); sess != nil {
			sess.HandleFeedback(it.FB, now)
		}
	}
}

// worker pumps the chunks handed over by the driver and the sessions
// handed over by admit, all of them through one scratch of its own.
func (s *Server) worker(ctx context.Context) {
	w := newScratch()
	for {
		select {
		case <-ctx.Done():
			return
		case chunk := <-s.jobs:
			s.pumpChunk(chunk, w)
		case t := <-s.admits:
			s.pumpAdmitted(t, w)
		}
	}
}

// flush adds what w's pumps sent and shed to the server's counters and
// their obs mirrors, and empties the tally: the shared cache lines are
// written once per chunk, not once per datagram.
//
//pelsvet:noalloc
func (s *Server) flush(w *scratch) {
	s.datagrams.Add(w.datagrams)
	s.bytes.Add(w.bytes)
	if s.obsDatagrams != nil {
		s.obsDatagrams.Add(int64(w.datagrams))
		s.obsBytes.Add(int64(w.bytes))
		s.obsShed.Add(int64(w.shed))
	}
	w.datagrams, w.bytes, w.shed = 0, 0, 0
}

// pumpAdmitted gives a session from the admission lane its first pump —
// the opening burst — and arms the wheel at the deadline pump returned, so
// the wheel only ever holds a lane session at a future deadline.
//
//pelsvet:noalloc
func (s *Server) pumpAdmitted(t *Timer, w *scratch) {
	now := s.cfg.Clock.Now()
	next, done := t.Owner.pump(now, w)
	s.flush(w)
	if done {
		s.finish(t.Owner, now)
		return
	}
	s.wheel.RescheduleAt(t, next)
	// The driver parks on an empty wheel, and this may be its first timer.
	s.kickDriver()
}

// pumpChunk pumps every session of one chunk, in order, at one reading of
// the clock, re-arms the ones that go on under one wheel lock, and returns
// the buffer. The instant is at most a chunk's pumping old by the last
// session; a token bucket refilled from an older instant only sends later.
//
//pelsvet:noalloc
func (s *Server) pumpChunk(chunk []*Timer, w *scratch) {
	now := s.cfg.Clock.Now()
	live := chunk[:0]
	for _, t := range chunk {
		next, done := t.Owner.pump(now, w)
		if done {
			s.flush(w) // counted before it is closed: ExitWhenIdle may end Run here
			s.finish(t.Owner, now)
			continue
		}
		t.At = next
		live = append(live, t)
	}
	s.flush(w)
	s.wheel.RescheduleBatch(live)
	// A pooled buffer must not keep a closed session reachable.
	clear(chunk)
	s.free <- chunk[:0]
	s.kickDriver()
}

// handOff passes one tick's fired timers to the workers in wheel order,
// one chunk per free buffer. It reports false when ctx ended while every
// buffer was in flight.
//
//pelsvet:noalloc
func (s *Server) handOff(ctx context.Context, fired []*Timer) bool {
	for len(fired) > 0 {
		select {
		case chunk := <-s.free:
			n := min(len(fired), pumpChunk)
			chunk = append(chunk, fired[:n]...)
			clear(fired[:n])
			fired = fired[n:]
			s.jobs <- chunk
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// finish removes a completed session from the table and tells the
// receiver why it ended (completed its frames, drained, or died on an
// internal error) so it can finish or reconnect instead of timing out.
func (s *Server) finish(sess *Session, now time.Time) {
	if s.table.DeleteIf(sess.Key(), sess, false) {
		s.completed.Add(1)
		if s.obsCompleted != nil {
			s.obsCompleted.Inc()
		}
		reason := sess.CloseReason()
		if reason == wire.ReasonNone {
			reason = wire.ReasonComplete
		}
		s.sendControl(wire.TypeClose, sess.Key().Flow, reason, 0, sess.Peer(), now)
	}
	s.checkIdleExit()
}

// driver advances the wheel on the configured tick and hands each tick's
// fired sessions to the worker pool in chunks; with an empty wheel it
// parks until a schedule kicks it. It also runs the idle reaper, the
// stuck watchdog, and the overload controller on coarse cadences.
func (s *Server) driver(ctx context.Context) {
	var fired []*Timer
	reapEvery := s.cfg.IdleTimeout / 2
	stuckEvery := s.cfg.StuckTimeout / 2
	now := s.cfg.Clock.Now()
	lastReap, lastStuck, lastOver := now, now, now
	var wave admitWave
	var lateEWMA float64 // smoothed driver lag behind the tick, seconds
	for ctx.Err() == nil {
		loopStart := s.cfg.Clock.Now()
		now = loopStart
		if s.cfg.IdleTimeout > 0 && now.Sub(lastReap) >= reapEvery {
			lastReap = now
			reapNow := now
			if n := s.table.Reap(now, s.cfg.IdleTimeout, func(k Key, sess *Session) {
				s.sendControl(wire.TypeClose, k.Flow, wire.ReasonIdle, 0, sess.Peer(), reapNow)
			}); n > 0 {
				s.reaped.Add(uint64(n))
				if s.obsReaped != nil {
					s.obsReaped.Add(int64(n))
				}
				s.checkIdleExit()
			}
		}
		if s.cfg.StuckTimeout > 0 && now.Sub(lastStuck) >= stuckEvery {
			lastStuck = now
			s.reapStuck(now)
		}
		if s.overload != nil && now.Sub(lastOver) >= s.overload.cfg.Every {
			lastOver = now
			s.evalOverload(now, lateEWMA)
		}
		if wave.settled(s.admitted.Load(), now) {
			select {
			case s.collect <- struct{}{}:
			default:
			}
		}
		fired = s.wheel.Advance(now, fired[:0])
		if !s.handOff(ctx, fired) {
			return
		}
		if s.wheel.Len() == 0 {
			if s.overload != nil && s.shedLvl.Load() > 0 {
				// An empty wheel must not park the driver mid-shed: the
				// overload controller has to keep observing the (now
				// receding) load so the shed unwinds. Tick until level 0,
				// then block as usual.
				_ = s.cfg.Clock.Sleep(ctx, s.cfg.WheelTick)
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-s.kick:
			}
			continue
		}
		_ = s.cfg.Clock.Sleep(ctx, s.cfg.WheelTick)
		// One loop should cost about a tick; the smoothed excess is the
		// wheel-lateness overload signal.
		late := (s.cfg.Clock.Now().Sub(loopStart) - s.cfg.WheelTick).Seconds()
		if late < 0 {
			late = 0
		}
		lateEWMA += 0.2 * (late - lateEWMA)
	}
}

// reapStuck sweeps the stuck watchdog: sessions with neither accepted
// feedback nor a sent datagram for StuckTimeout are closed, removed, and
// told why.
func (s *Server) reapStuck(now time.Time) {
	n := 0
	s.table.Range(func(k Key, sess *Session) bool {
		if sess.expireStuck(now, s.cfg.StuckTimeout) {
			if s.table.DeleteIf(k, sess, true) {
				n++
				s.sendControl(wire.TypeClose, k.Flow, wire.ReasonStuck, 0, sess.Peer(), now)
			}
		}
		return true
	})
	if n > 0 {
		s.reapedStuck.Add(uint64(n))
		if s.obsReapedStuck != nil {
			s.obsReapedStuck.Add(int64(n))
		}
		s.checkIdleExit()
	}
}

// evalOverload feeds the controller one observation and publishes any
// level change to the sessions (and counters).
func (s *Server) evalOverload(now time.Time, lateEWMA float64) {
	sig := s.signals(lateEWMA)
	s.loadBits.Store(math.Float64bits(sig.Score()))
	prev := int(s.shedLvl.Load())
	lvl, changed := s.overload.Update(now, sig)
	if !changed {
		return
	}
	s.shedLvl.Store(int32(lvl))
	if lvl > prev {
		s.sheds.Add(1)
		if s.obsSheds != nil {
			s.obsSheds.Inc()
		}
	} else {
		s.restores.Add(1)
		if s.obsRestores != nil {
			s.obsRestores.Inc()
		}
	}
}

// signals reads the overload controller's inputs.
func (s *Server) signals(lateEWMA float64) loadSignals {
	var demand float64
	s.table.Range(func(_ Key, sess *Session) bool {
		demand += sess.Rate().Bps()
		return true
	})
	return loadSignals{
		Occupancy: float64(s.table.Len()) / float64(s.cfg.MaxSessions),
		Backlog:   1 - float64(len(s.free))/float64(cap(s.free)),
		Lateness:  lateEWMA / (lateHorizon * s.cfg.WheelTick.Seconds()),
		Demand:    demand / s.overload.cfg.Capacity.Bps(),
	}
}

func (s *Server) kickDriver() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// checkIdleExit fires the ExitWhenIdle signal when the last session is
// gone.
func (s *Server) checkIdleExit() {
	if !s.cfg.ExitWhenIdle || s.admitted.Load() == 0 || s.table.Len() != 0 {
		return
	}
	s.idleOnce.Do(func() { close(s.idleCh) })
}
