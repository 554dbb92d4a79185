package session

// The server core driven alone: no Server, goroutine, channel or clock, only
// its entry points on a scripted clock, with the test playing demux, the
// admission lane, the wheel driver and the workers.

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// countingOut is an Out that counts what the sessions wrote.
type countingOut struct{ writes int }

func (o *countingOut) WriteTo(b []byte, _ net.Addr) (int, error) {
	o.writes++
	return len(b), nil
}

// fuzzSources are the forms a source can take: the same IPv4 peer as a
// netip address, as the 4-in-6 address a dual-stack socket reports and as a
// net.Addr (all three one key); IPv6 and zoned peers in both forms; and a
// net.Addr that is not a UDP address at all.
var fuzzSources = []origin{
	{ap: netip.MustParseAddrPort("10.0.0.1:1000")},
	{ap: netip.MustParseAddrPort("[::ffff:10.0.0.1]:1000")},
	{addr: &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1000}},
	{ap: netip.MustParseAddrPort("[2001:db8::1]:443")},
	{addr: &net.UDPAddr{IP: net.ParseIP("2001:db8::1"), Port: 443}},
	{ap: netip.MustParseAddrPort("[fe80::1%eth0]:9")},
	{addr: &net.UDPAddr{IP: net.ParseIP("fe80::1"), Zone: "eth0", Port: 9}},
	{addr: &net.IPAddr{IP: net.IPv4(192, 0, 2, 9)}},
}

// coreRig is a core and what the test keeps around it: the lane, the
// fired timers not yet pumped, and how many admitted timers are out there.
type coreRig struct {
	t       *testing.T
	c       *core
	out     *countingOut
	now     time.Time
	lane    []*Timer // capacity laneCap; beyond it laneFull arms the wheel
	pending []*Timer // fired by a tick, waiting for a chunk pump
	fired   []*Timer
	w       *scratch
	// outstanding counts admitted timers whose pump has not reported the
	// session done: each is in exactly one of lane, pending and wheel.
	outstanding int
}

const laneCap = 2

func newCoreRig(t *testing.T) *coreRig {
	out := &countingOut{}
	now := time.Unix(5000, 0)
	c, err := newCore(ServerConfig{
		Conn:         &ctlConn{},
		Out:          out,
		Shards:       2,
		MaxSessions:  3,
		IdleTimeout:  300 * time.Millisecond,
		StuckTimeout: 400 * time.Millisecond,
		Overload:     OverloadConfig{Capacity: 600 * units.Kbps, Every: 10 * time.Millisecond, Hold: 20 * time.Millisecond},
		Session: Config{
			Frame:      fgs.FrameSpec{PacketSize: 100, TotalPackets: 8, GreenPackets: 1},
			BurstBytes: 200,
		},
		Tune: func(k Key, cfg *Config) {
			switch k.Flow % 4 {
			case 2:
				cfg.MaxFrames = 2 // completes on its own
			case 3:
				cfg.Layers = 1 // invalid: rejected for its config
			}
		},
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	return &coreRig{t: t, c: c, out: out, now: now, w: newScratch()}
}

// datagram plays demux: b from src into the core's datagram entry, the
// timer it returns into the lane. It checks the entry wrote nothing to Out
// and that a hello counted exactly once.
func (r *coreRig) datagram(b []byte, src origin) {
	st := func() [4]int64 {
		n := r.c.n
		return [4]int64{n.hellos.Value(), n.admitted.Value(), n.rejected.Value(), n.admitRaces.Value()}
	}
	before, writes := st(), r.out.writes
	tm := r.c.handleDatagram(b, src, r.now)
	after := st()
	if r.out.writes != writes {
		r.t.Fatalf("the datagram entry wrote %d datagrams to Out", r.out.writes-writes)
	}
	hellos, ends := after[0]-before[0], after[1]+after[2]+after[3]-before[1]-before[2]-before[3]
	switch {
	case hellos == 0 && ends != 0, hellos > 1, ends > 1:
		r.t.Fatalf("one datagram moved hellos by %d and admitted+rejected+raced by %d", hellos, ends)
	case hellos == 1 && ends == 0:
		// Neither admitted, refused nor raced: a duplicate of a live key.
		h, _, err := wire.DecodeDatagram(b)
		if err != nil || r.c.table.Get(r.c.keyOf(src, h.Flow)) == nil {
			r.t.Fatalf("a hello counted nowhere, and its key has no live session")
		}
	}
	if admitted := after[1] - before[1]; (tm != nil) != (admitted == 1) {
		r.t.Fatalf("the entry returned timer %p for %d admissions", tm, admitted)
	}
	if tm == nil {
		return
	}
	r.outstanding++
	if len(r.lane) < laneCap {
		r.lane = append(r.lane, tm)
	} else {
		r.c.laneFull(tm, r.now)
	}
}

// tick plays the wheel driver: the fired timers wait for a chunk pump.
func (r *coreRig) tick(late, backlog float64) {
	wk := r.c.tick(r.now, late, backlog, r.fired[:0])
	r.fired = wk.fired
	r.pending = append(r.pending, wk.fired...)
}

// pumpLane plays a worker taking the lane's oldest timer.
func (r *coreRig) pumpLane() {
	if len(r.lane) == 0 {
		return
	}
	tm := r.lane[0]
	r.lane = r.lane[1:]
	if r.c.pumpAdmitted(tm, r.now, r.w) {
		r.outstanding--
	}
}

// pumpChunk plays a worker taking up to n pending timers as one chunk.
func (r *coreRig) pumpChunk(n int) {
	n = min(n, len(r.pending))
	chunk := append([]*Timer(nil), r.pending[:n]...)
	r.pending = r.pending[n:]
	r.outstanding -= r.c.pumpChunk(chunk, r.now, r.w)
}

// check holds the invariants that hold between any two steps.
func (r *coreRig) check() {
	bound := r.c.cfg.MaxSessions
	if n := r.c.table.Len(); n > bound {
		r.t.Fatalf("%d sessions in a table bounded at %d", n, bound)
	}
	if n := len(r.c.keys.m); n > 2*bound {
		r.t.Fatalf("%d interned keys, bound %d", n, 2*bound)
	}
	seen := make(map[*Timer]bool, len(r.lane)+len(r.pending))
	for _, tm := range append(append([]*Timer(nil), r.lane...), r.pending...) {
		if seen[tm] {
			r.t.Fatalf("timer %p is in the lane or the pending chunks twice", tm)
		}
		seen[tm] = true
	}
	if got := len(r.lane) + len(r.pending) + r.c.wheel.Len(); got != r.outstanding {
		r.t.Fatalf("lane %d + chunks %d + wheel %d = %d timers, %d admitted sessions not done",
			len(r.lane), len(r.pending), r.c.wheel.Len(), got, r.outstanding)
	}
}

// fuzzDatagram builds the datagram op asks for from the script's bytes.
func fuzzDatagram(kind, flow, arg byte, raw []byte) []byte {
	var (
		b   []byte
		err error
	)
	switch kind % 6 {
	case 0:
		b, err = wire.EncodeDatagram(wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: uint32(flow % 8)}, nil)
	case 1, 2:
		fb := packet.Feedback{RouterID: 1 + int(arg>>7), Epoch: uint64(arg & 0x7f), Loss: float64(arg%64) / 64, Valid: true}
		b, err = wire.EncodeDatagram(wire.Header{Type: wire.TypeFeedback, Color: packet.ACK, Flow: uint32(flow % 8), Feedback: fb}, nil)
	case 3:
		b, err = wire.AppendData(nil, packet.Green, uint32(flow%8), 0, 0, uint64(arg), 0, int(arg))
	case 4:
		b, err = wire.EncodeDatagram(wire.ControlHeader(wire.TypeClose, uint32(flow%8), wire.ReasonIdle, 0, 0), nil)
	default:
		return raw
	}
	if err != nil {
		return raw
	}
	if arg%16 == 15 {
		b[int(flow)%len(b)] ^= 1 << (arg % 8) // corrupted on the way
	}
	return b
}

// FuzzServerDatagram feeds the core's datagram entry any bytes, of any type,
// from any source form, interleaved with ticks and pumps on a scripted
// clock, and then drains the server. Between every two steps the table and
// the key table stay bounded, every admitted timer is in exactly one of
// lane, wheel and chunk, the datagram entry has written nothing to Out and
// every hello counted exactly once; at the end every admitted session ended
// exactly once.
func FuzzServerDatagram(f *testing.F) {
	// Script ops, one byte each plus their arguments: 0 datagram (kind,
	// flow, arg, source, then up to 16 raw bytes when kind asks for them),
	// 1 tick (ms, lateness, backlog), 2 lane pump, 3 chunk pump (n), 4
	// clock (ms), 5 drain.
	var hellos []byte
	for flow := byte(0); flow < 8; flow++ {
		hellos = append(hellos, 0, 0, flow, 0, flow%9, 2)
	}
	f.Add(hellos)
	f.Add(append(append([]byte{}, hellos...), 1, 5, 0, 0, 3, 8, 0, 1, 1, 40, 1, 0, 1, 3, 8, 1, 200, 0, 255, 3, 8))
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 1, 1, 9, 3, 1, 5, 200, 0, 3, 4, 0, 0, 1, 2, 0, 0, 1, 200, 1, 0, 5, 7, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 5, 1, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 0, 1, 15, 8})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newCoreRig(t)
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		for steps := 0; len(script) > 0 && steps < 512; steps++ {
			switch next() % 6 {
			case 0:
				kind, flow, arg, sel := next(), next(), next(), next()
				raw := script[:min(len(script), int(arg%17))]
				b := fuzzDatagram(kind, flow, arg, raw)
				if kind%6 == 5 {
					script = script[len(raw):]
				}
				src := fuzzSources[int(sel)%len(fuzzSources)]
				if sel >= 128 { // a made-up IPv4 source, one of up to 128
					src = origin{ap: netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, 100, sel & 0x7f}), 7000)}
				}
				r.datagram(b, src)
			case 1:
				r.now = r.now.Add(time.Duration(next()%64) * time.Millisecond)
				r.tick(float64(next())/1e4, float64(next())/255)
			case 2:
				r.pumpLane()
			case 3:
				r.pumpChunk(int(next()%8) + 1)
			case 4:
				r.now = r.now.Add(time.Duration(next()) * time.Millisecond)
			case 5:
				r.c.drain()
			}
			r.check()
		}

		// Drain: every session closes at a frame boundary, and every
		// timer comes back through a pump.
		r.c.drain()
		for i := 0; r.outstanding > 0 || r.c.table.Len() > 0; i++ {
			if i == 1000 {
				t.Fatalf("after 20 s of draining: %d sessions, %d timers out", r.c.table.Len(), r.outstanding)
			}
			r.now = r.now.Add(20 * time.Millisecond)
			for len(r.lane) > 0 {
				r.pumpLane()
			}
			r.tick(0, 0)
			r.pumpChunk(len(r.pending))
			r.check()
		}
		n := r.c.n
		if a, e := n.admitted.Value(), n.completed.Value()+n.reaped.Value()+n.reapedStuck.Value(); a != e {
			t.Fatalf("%d sessions admitted, %d ended (completed %d, reaped %d, stuck %d)",
				a, e, n.completed.Value(), n.reaped.Value(), n.reapedStuck.Value())
		}
		if rej := n.rejFull.Value() + n.rejDraining.Value() + n.rejConfig.Value(); rej != n.rejected.Value() {
			t.Fatalf("rejected %d, by reason %d", n.rejected.Value(), rej)
		}
	})
}
