package session

import (
	"context"
	"errors"
	"fmt"
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

// demuxPoll bounds the demux read timeout so context cancellation is
// observed promptly even on a silent socket.
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

// Server runs the multi-session PELS gateway. Its logic is a passive core
// (core.go: admission, feedback, pumps, reaping, overload) that owns no
// goroutine, channel or clock; Server is the core's driver: one socket
// read by one demux goroutine, one wheel driver, a fixed worker pool and a
// parked collector, which read the Clock, measure their own lag and move
// timers between them over channels. See the package comment for the
// lifecycle.
type Server struct {
	*core

	// The hand-off: the driver fills a buffer from free with up to
	// pumpChunk fired timers and sends it on jobs; the worker that pumped
	// it sends it back on free. Both channels hold every buffer there is,
	// so only the driver's wait for a free one can block.
	jobs chan []*Timer
	free chan []*Timer
	kick chan struct{}
	// The admission lane: demux sends a new session's timer here and a
	// worker gives it its first pump, so the opening burst leaves one
	// goroutine hop after the hello instead of one tick plus a chunk
	// hand-off later. Demux itself never pumps — a burst is up to
	// BurstBytes of writes on the one goroutine that reads everyone's
	// feedback — and never blocks on the lane either.
	admits chan *Timer
	// collect is the driver's request for one garbage collection
	// (collectQuiet), run off the driver so no tick waits for it.
	collect chan struct{}

	started  atomic.Bool
	idleOnce sync.Once
	idleCh   chan struct{}
}

// NewServer validates cfg and builds a server (nothing runs until Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Conn == nil {
		return nil, errors.New("session: ServerConfig.Conn is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("session: ServerConfig.Clock is required (wire.SystemClock in production)")
	}
	c, err := newCore(cfg, cfg.Clock.Now())
	if err != nil {
		return nil, err
	}
	s := &Server{
		core: c,
		// Two buffers a worker: one being pumped, one queued behind it.
		jobs:    make(chan []*Timer, 2*c.cfg.Workers),
		free:    make(chan []*Timer, 2*c.cfg.Workers),
		kick:    make(chan struct{}, 1),
		admits:  make(chan *Timer, admitLane),
		collect: make(chan struct{}, 1),
		idleCh:  make(chan struct{}),
	}
	for i := 0; i < cap(s.free); i++ {
		s.free <- make([]*Timer, 0, pumpChunk)
	}
	c.reg.GaugeFunc("session.jobs_depth", func() float64 { return float64(len(s.jobs)) })
	c.reg.GaugeFunc("session.admit_lane_depth", func() float64 { return float64(len(s.admits)) })
	return s, nil
}

// Table exposes the session table (read-mostly: stats, shard registries).
func (s *Server) Table() *Table { return s.table }

// Stats returns a snapshot of the aggregate counters.
func (s *Server) Stats() ServerStats {
	u := func(c *obs.Counter) uint64 { return uint64(c.Value()) }
	return ServerStats{
		Active:          s.table.Len(),
		Datagrams:       u(s.n.datagrams),
		Bytes:           u(s.n.bytes),
		Admitted:        u(s.n.admitted),
		Completed:       u(s.n.completed),
		Reaped:          u(s.n.reaped),
		ReapedStuck:     u(s.n.reapedStuck),
		Rejected:        u(s.n.rejected),
		RejectedFull:    u(s.n.rejFull),
		RejectedDrain:   u(s.n.rejDraining),
		RejectedConfig:  u(s.n.rejConfig),
		AdmitRaces:      u(s.n.admitRaces),
		AdmitFallbacks:  u(s.n.admitFalls),
		Hellos:          u(s.n.hellos),
		ControlSent:     u(s.n.controlSent),
		FeedbackItems:   u(s.n.feedback),
		FeedbackBatches: u(s.n.feedback),
		WheelTimers:     s.wheel.Len(),
		ShedLevel:       int(s.shedLvl.Load()),
		Load:            s.load.Value(),
		Sheds:           u(s.n.sheds),
		Restores:        u(s.n.restores),
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
	s.drain()
	for s.table.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("session: %d sessions still draining: %w", s.table.Len(), err)
		}
		_ = s.cfg.Clock.Sleep(ctx, 10*time.Millisecond)
	}
	return nil
}

// addrPortReader is the netip read of *net.UDPConn.
type addrPortReader interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
}

// demux is the socket read loop: every datagram goes to the core at the
// instant it was read, and the timer of a session it admitted to the lane.
func (s *Server) demux(ctx context.Context) error {
	buf := make([]byte, wire.MaxDatagram+1)
	netipConn, _ := s.cfg.Conn.(addrPortReader)
	// Polled without blocking rather than through ctx.Err, which takes the
	// context's lock on every datagram.
	done := ctx.Done()
	now := s.cfg.Clock.Now()
	for {
		select {
		case <-done:
			return nil
		default:
		}
		_ = s.cfg.Conn.SetReadDeadline(now.Add(demuxPoll))
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
			s.ingest(buf[:n], from, now)
		case errors.Is(err, os.ErrDeadlineExceeded):
		case ctx.Err() != nil:
			return nil // a closed socket is expected during shutdown
		default:
			// Under a live context a closed socket, or any other read
			// error, is a failure the caller must see.
			return fmt.Errorf("session: demux: %w", err)
		}
	}
}

// ingest hands one datagram to the core, and the timer of a session it
// admitted to the lane — or, with the lane full, to the wheel at now.
func (s *Server) ingest(b []byte, from origin, now time.Time) {
	t := s.handleDatagram(b, from, now)
	if t == nil {
		return
	}
	select {
	case s.admits <- t:
	default:
		s.laneFull(t, now)
		s.kickDriver()
	}
}

// worker pumps the chunks handed over by the driver and the sessions
// handed over by demux, all of them through one scratch of its own.
func (s *Server) worker(ctx context.Context) {
	w := newScratch()
	for {
		select {
		case <-ctx.Done():
			return
		case chunk := <-s.jobs:
			s.runChunk(chunk, w)
		case t := <-s.admits:
			s.runAdmitted(t, w)
		}
	}
}

// runChunk pumps one chunk at one reading of the clock and returns its
// buffer.
//
//pelsvet:noalloc
func (s *Server) runChunk(chunk []*Timer, w *scratch) {
	ended := s.pumpChunk(chunk, s.cfg.Clock.Now(), w)
	// A pooled buffer must not keep a closed session reachable.
	clear(chunk)
	s.free <- chunk[:0]
	s.kickDriver()
	if ended > 0 {
		s.checkIdleExit()
	}
}

// runAdmitted gives a session from the lane its first pump.
//
//pelsvet:noalloc
func (s *Server) runAdmitted(t *Timer, w *scratch) {
	if s.pumpAdmitted(t, s.cfg.Clock.Now(), w) {
		s.checkIdleExit()
		return
	}
	// The driver parks on an empty wheel, and this may be its first timer.
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

// driver ticks the core on the configured tick and hands each tick's fired
// sessions to the worker pool in chunks; when the core says park it waits
// for a kick instead. It measures its own lag behind the tick, the
// wheel-lateness overload signal.
func (s *Server) driver(ctx context.Context) {
	var fired []*Timer
	var lateEWMA float64 // smoothed driver lag behind the tick, seconds
	for ctx.Err() == nil {
		loopStart := s.cfg.Clock.Now()
		wk := s.tick(loopStart, lateEWMA, s.backlog(), fired[:0])
		fired = wk.fired
		if wk.collect {
			select {
			case s.collect <- struct{}{}:
			default:
			}
		}
		s.checkIdleExit() // the reaper or the watchdog may have emptied the table
		if !s.handOff(ctx, fired) {
			return
		}
		if wk.park {
			select {
			case <-ctx.Done():
				return
			case <-s.kick:
			}
			continue
		}
		_ = s.cfg.Clock.Sleep(ctx, s.cfg.wheelTick)
		// One loop should cost about a tick; the smoothed excess is the
		// wheel-lateness overload signal.
		late := (s.cfg.Clock.Now().Sub(loopStart) - s.cfg.wheelTick).Seconds()
		if late < 0 {
			late = 0
		}
		lateEWMA += 0.2 * (late - lateEWMA)
	}
}

// backlog is the share of the hand-off's chunk buffers in flight.
func (s *Server) backlog() float64 {
	return 1 - float64(len(s.free))/float64(cap(s.free))
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
	if s.cfg.ExitWhenIdle && s.n.admitted.Value() > 0 && s.table.Len() == 0 {
		s.idleOnce.Do(func() { close(s.idleCh) })
	}
}
