package session

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// wheelHorizon is the span of the pacing wheel, beyond every per-session
// deadline: it has wheelHorizon / wheelTick slots, 512 at the default tick.
const wheelHorizon = 512 * time.Millisecond

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

// admitWave is the tick's view of the admitted counter.
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

// counts is the server's one copy of each of its counts: an obs counter
// under the "session." prefix, which Stats reads back.
type counts struct {
	datagrams, bytes, shed, controlSent       *obs.Counter
	hellos, admitted, admitRaces, admitFalls  *obs.Counter
	rejected, rejFull, rejDraining, rejConfig *obs.Counter
	completed, reaped, reapedStuck, feedback  *obs.Counter
	sheds, restores                           *obs.Counter
}

func newCounts(reg *obs.Registry) counts {
	return counts{
		datagrams:   reg.Counter("session.datagrams"),
		bytes:       reg.Counter("session.bytes"),
		shed:        reg.Counter("session.shed_datagrams"),
		controlSent: reg.Counter("session.control_sent"),
		hellos:      reg.Counter("session.hellos"),
		admitted:    reg.Counter("session.admitted"),
		admitRaces:  reg.Counter("session.admit_races"),
		admitFalls:  reg.Counter("session.admit_lane_fallbacks"),
		rejected:    reg.Counter("session.rejected"),
		rejFull:     reg.Counter("session.rejected_full"),
		rejDraining: reg.Counter("session.rejected_draining"),
		rejConfig:   reg.Counter("session.rejected_config"),
		completed:   reg.Counter("session.completed"),
		reaped:      reg.Counter("session.reaped"),
		reapedStuck: reg.Counter("session.reaped_stuck"),
		feedback:    reg.Counter("session.feedback_items"),
		sheds:       reg.Counter("session.sheds"),
		restores:    reg.Counter("session.restores"),
	}
}

// core is the server's logic with no goroutine, channel, socket read or
// clock of its own: every entry is handed the instant it acts at, and what
// must happen next — a timer for the admission lane, timers for the
// workers, a wait — is returned to the caller. Server is its driver: demux
// feeds it datagrams, the workers its pumps and the wheel driver its
// ticks. It writes to Conn (Reject and Close) and, from its pumps, to Out.
//
// An admitted session's timer is always in exactly one place: the
// admission lane (handleDatagram returned it), the wheel, or one chunk
// (tick fired it), until a pump reports the session done.
type core struct {
	cfg      ServerConfig
	table    *Table
	wheel    *Wheel
	overload *Overload     // nil when disabled
	reg      *obs.Registry // cfg.Obs, or a private one
	n        counts
	load     *obs.Gauge // the last load score

	// shedLvl is the overload controller's level, which every session
	// reads per pump; draining refuses hellos once Shutdown began.
	shedLvl  atomic.Int32
	draining atomic.Bool

	// Control datagram scratch: rejects and closes are encoded under
	// ctlMu (admission, ticks and pumps all send them, from different
	// goroutines) and written straight to Conn, bypassing the shaped data
	// path — a rejection must get out precisely when the bottleneck is
	// saturated.
	ctlMu  sync.Mutex
	ctlBuf []byte

	// keys belongs to handleDatagram's one caller; the rest of the
	// paragraph to tick's.
	keys                          keyTable
	lastReap, lastStuck, lastOver time.Time
	wave                          admitWave
}

// newCore builds the core of a server whose first instant is now. cfg must
// carry a Conn; the core never reads its Clock.
func newCore(cfg ServerConfig, now time.Time) (*core, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &core{
		cfg:    cfg,
		reg:    reg,
		table:  NewTable(cfg.Shards),
		wheel:  NewWheel(cfg.wheelTick, max(int(wheelHorizon/cfg.wheelTick), 1), now),
		n:      newCounts(reg),
		load:   reg.Gauge("session.load"),
		ctlBuf: make([]byte, 0, wire.HeaderSize),
		// Twice the sessions there can be: the live receivers always fit,
		// with room for the addresses of sessions that have since ended.
		keys:     keyTable{m: make(map[netip.AddrPort]string), max: 2 * cfg.MaxSessions},
		lastReap: now, lastStuck: now, lastOver: now,
	}
	if cfg.Overload.Enabled() {
		c.overload = NewOverload(cfg.Overload, cfg.Session.Layers)
	}
	reg.GaugeFunc("session.active", func() float64 { return float64(c.table.Len()) })
	reg.GaugeFunc("session.wheel_timers", func() float64 { return float64(c.wheel.Len()) })
	reg.GaugeFunc("session.shed_level", func() float64 { return float64(c.shedLvl.Load()) })
	return c, nil
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

// keyOf names the session a datagram from from on flow belongs to.
func (c *core) keyOf(from origin, flow uint32) Key {
	if from.addr != nil {
		return Key{Addr: from.addr.String(), Flow: flow}
	}
	return Key{Addr: c.keys.addr(from.ap), Flow: flow}
}

// handleDatagram is the core's datagram entry: a hello admits a session
// and returns its timer for the admission lane (nil when the hello admitted
// nothing), a feedback label is applied to its session at once, and
// anything else is dropped as noise. It never pumps and never writes to Out.
func (c *core) handleDatagram(b []byte, from origin, now time.Time) *Timer {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		return nil // corrupted or foreign noise
	}
	switch h.Type {
	case wire.TypeHello:
		c.n.hellos.Inc()
		return c.admit(from, h.Flow, now)
	case wire.TypeFeedback:
		if !h.Feedback.Valid {
			return nil
		}
		// Labels are applied one by one in arrival order, the only order a
		// session's epoch dedup sees.
		c.n.feedback.Inc()
		if sess := c.table.Get(c.keyOf(from, h.Flow)); sess != nil {
			sess.HandleFeedback(h.Feedback, now)
		}
	}
	return nil
}

// admit creates the session for a hello and returns its timer, which gives
// the session to the workers: the caller puts it in the admission lane, or
// — the lane full — hands it to laneFull. A hello for a live key refreshes
// that session and returns nil. Refusals are spoken, not silent: each one
// sends a Reject datagram with the reason and a retry-after hint so the
// receiver can back off and re-hello instead of staring at a black hole.
func (c *core) admit(src origin, flow uint32, now time.Time) *Timer {
	key := c.keyOf(src, flow)
	if sess := c.table.Get(key); sess != nil {
		sess.Touch(now) // duplicate hello: receiver is alive
		return nil
	}
	from := src.netAddr()
	if c.draining.Load() {
		c.reject(key, from, wire.ReasonDraining, now)
		return nil
	}
	if c.table.Len() >= c.cfg.MaxSessions {
		c.reject(key, from, wire.ReasonServerFull, now)
		return nil
	}
	cfg := c.cfg.Session
	if c.cfg.Tune != nil {
		c.cfg.Tune(key, &cfg)
		cfg = cfg.WithDefaults()
		if err := cfg.Validate(); err != nil {
			c.reject(key, from, wire.ReasonBadConfig, now)
			return nil
		}
	}
	sess, err := newSession(key, from, c.cfg.Out, cfg, c.wheel.Origin(), now)
	if err != nil {
		c.reject(key, from, wire.ReasonBadConfig, now)
		return nil
	}
	sess.setShedLevel(&c.shedLvl)
	if !c.table.Put(key, sess) {
		// A concurrent hello for the same key won the race and its
		// session is live — this duplicate counts as a race, not a
		// rejection, and no Reject goes on the wire.
		c.n.admitRaces.Inc()
		return nil
	}
	c.n.admitted.Inc()
	if c.draining.Load() {
		// Shutdown may have set the flag between the drain check above and
		// the Put: its drain sweep either saw this session (Put ordered
		// before the sweep's lock) or will be covered by this re-check —
		// either way no admitted session escapes the drain.
		sess.Drain()
	}
	// The timer is handed over last, on a session that is fully built.
	return &sess.timer
}

// laneFull arms an admitted session's timer at now, for when a hello storm
// has outrun the workers and the lane has no room: the next tick serves the
// session instead. This is the one place a timer is armed at now rather
// than at a deadline pump returned.
func (c *core) laneFull(t *Timer, now time.Time) {
	c.n.admitFalls.Inc()
	c.wheel.Reschedule(t, now)
}

// reject counts one refused hello — aggregate, per-reason, and on the
// shard the key targeted — and answers it with a Reject datagram.
func (c *core) reject(key Key, to net.Addr, reason wire.Reason, now time.Time) {
	c.n.rejected.Inc()
	switch reason {
	case wire.ReasonServerFull:
		c.n.rejFull.Inc()
	case wire.ReasonDraining:
		c.n.rejDraining.Inc()
	default:
		c.n.rejConfig.Inc()
	}
	c.table.RecordReject(key, reason)
	retry := c.cfg.RejectRetryAfter
	if reason == wire.ReasonBadConfig {
		retry = 0 // retrying an invalid config cannot succeed
	}
	c.sendControl(wire.TypeReject, key.Flow, reason, retry, to, now)
}

// sendControl encodes and writes one Reject or Close datagram straight
// to the server socket (not the shaped data path). The scratch buffer is
// shared by every caller, so a mutex serializes encode+write; control
// traffic is rare enough that contention here is irrelevant.
func (c *core) sendControl(t wire.Type, flow uint32, reason wire.Reason, retry time.Duration, to net.Addr, now time.Time) {
	h := wire.ControlHeader(t, flow, reason, retry, now.UnixNano())
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	b, err := wire.AppendDatagram(c.ctlBuf[:0], h, nil)
	if err != nil {
		return // unreachable: ControlHeader is valid by construction
	}
	c.ctlBuf = b
	_, _ = c.cfg.Conn.WriteTo(b, to)
	c.n.controlSent.Inc()
}

// drain refuses every hello from now on and asks each live session to
// finish its frame in flight and close.
func (c *core) drain() {
	c.draining.Store(true)
	c.table.Range(func(_ Key, sess *Session) bool {
		sess.Drain()
		return true
	})
}

// flush adds what w's pumps sent and shed to the server's counters and
// empties the tally: the shared cache lines are written once per chunk,
// not once per datagram.
//
//pelsvet:noalloc
func (c *core) flush(w *scratch) {
	c.n.datagrams.Add(int64(w.datagrams))
	c.n.bytes.Add(int64(w.bytes))
	c.n.shed.Add(int64(w.shed))
	w.datagrams, w.bytes, w.shed = 0, 0, 0
}

// pumpAdmitted gives a session from the admission lane its first pump —
// the opening burst — at now, and arms the wheel at the deadline pump
// returned, so the wheel only ever holds a lane session at a future
// deadline. It reports whether the session is done.
//
//pelsvet:noalloc
func (c *core) pumpAdmitted(t *Timer, now time.Time, w *scratch) bool {
	next, done := t.Owner.pump(now, w)
	c.flush(w)
	if done {
		c.finish(t.Owner, now)
		return true
	}
	c.wheel.RescheduleAt(t, next)
	return false
}

// pumpChunk pumps every session of one chunk, in order, at now, and
// re-arms the ones that go on under one wheel lock; the chunk's contents
// are left for the caller to clear. The instant is at most a chunk's
// pumping old by the last session; a token bucket refilled from an older
// instant only sends later. It returns how many sessions were done.
//
//pelsvet:noalloc
func (c *core) pumpChunk(chunk []*Timer, now time.Time, w *scratch) int {
	live := chunk[:0]
	for _, t := range chunk {
		next, done := t.Owner.pump(now, w)
		if done {
			c.finish(t.Owner, now)
			continue
		}
		t.At = next
		live = append(live, t)
	}
	c.flush(w)
	c.wheel.RescheduleBatch(live)
	return len(chunk) - len(live)
}

// finish removes a completed session from the table and tells the
// receiver why it ended (completed its frames, drained, or died on an
// internal error) so it can finish or reconnect instead of timing out.
func (c *core) finish(sess *Session, now time.Time) {
	if c.table.DeleteIf(sess.Key(), sess, false) {
		c.n.completed.Inc()
		reason := sess.CloseReason()
		if reason == wire.ReasonNone {
			reason = wire.ReasonComplete
		}
		c.sendControl(wire.TypeClose, sess.Key().Flow, reason, 0, sess.Peer(), now)
	}
}

// wake is what one tick tells its driver.
type wake struct {
	fired   []*Timer // the due timers in wheel order, for the workers
	park    bool     // nothing armed and nothing shed: wait for a kick, not a tick
	collect bool     // an admission wave has settled: run one collection
}

// tick is one wake of the wheel driver at now: the idle reaper, the stuck
// watchdog and the overload controller on their cadences, the
// admission-wave check, and the wheel advanced to now, its due timers
// appended to fired. late (the driver's smoothed lag behind its tick, in
// seconds) and backlog (the share of chunk buffers in flight) are what the
// driver measured of itself, for the overload controller.
func (c *core) tick(now time.Time, late, backlog float64, fired []*Timer) wake {
	if c.cfg.IdleTimeout > 0 && now.Sub(c.lastReap) >= c.cfg.IdleTimeout/2 {
		c.lastReap = now
		n := c.table.Reap(now, c.cfg.IdleTimeout, func(k Key, sess *Session) {
			c.sendControl(wire.TypeClose, k.Flow, wire.ReasonIdle, 0, sess.Peer(), now)
		})
		c.n.reaped.Add(int64(n))
	}
	if c.cfg.StuckTimeout > 0 && now.Sub(c.lastStuck) >= c.cfg.StuckTimeout/2 {
		c.lastStuck = now
		c.reapStuck(now)
	}
	if c.overload != nil && now.Sub(c.lastOver) >= c.overload.cfg.Every {
		c.lastOver = now
		c.evalOverload(now, late, backlog)
	}
	collect := c.wave.settled(uint64(c.n.admitted.Value()), now)
	fired = c.wheel.Advance(now, fired)
	// An empty wheel must not park the driver mid-shed: the overload
	// controller has to keep observing the (now receding) load so the shed
	// unwinds.
	park := c.wheel.Len() == 0 && (c.overload == nil || c.shedLvl.Load() == 0)
	return wake{fired: fired, park: park, collect: collect}
}

// reapStuck sweeps the stuck watchdog: sessions with neither accepted
// feedback nor a sent datagram for StuckTimeout are closed, removed, and
// told why.
func (c *core) reapStuck(now time.Time) {
	n := 0
	c.table.Range(func(k Key, sess *Session) bool {
		if sess.expireStuck(now, c.cfg.StuckTimeout) && c.table.DeleteIf(k, sess, true) {
			n++
			c.sendControl(wire.TypeClose, k.Flow, wire.ReasonStuck, 0, sess.Peer(), now)
		}
		return true
	})
	c.n.reapedStuck.Add(int64(n))
}

// evalOverload feeds the controller one observation and publishes any
// level change to the sessions (and counters).
func (c *core) evalOverload(now time.Time, late, backlog float64) {
	sig := c.signals(late, backlog)
	c.load.Set(sig.Score())
	prev := int(c.shedLvl.Load())
	lvl, changed := c.overload.Update(now, sig)
	if !changed {
		return
	}
	c.shedLvl.Store(int32(lvl))
	if lvl > prev {
		c.n.sheds.Inc()
	} else {
		c.n.restores.Inc()
	}
}

// signals assembles the overload controller's inputs.
func (c *core) signals(late, backlog float64) loadSignals {
	var demand float64
	c.table.Range(func(_ Key, sess *Session) bool {
		demand += sess.Rate().Bps()
		return true
	})
	return loadSignals{
		Occupancy: float64(c.table.Len()) / float64(c.cfg.MaxSessions),
		Backlog:   backlog,
		Lateness:  late / (lateHorizon * c.cfg.wheelTick.Seconds()),
		Demand:    demand / c.overload.cfg.Capacity.Bps(),
	}
}
