package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
)

// sentDatagram is one datagram a swarm wrote, and the tick it wrote it on.
type sentDatagram struct {
	tick  int
	typ   Type
	flow  uint32
	seq   uint64
	label packet.Feedback
}

// swarmLog stands in for the swarm's sockets in tests that step the swarm
// by hand: it records what is written (when record is set) and never
// delivers anything.
type swarmLog struct {
	net.PacketConn // nil: the stepped swarm only ever writes
	record         bool
	tick           int
	sent           []sentDatagram
}

func (l *swarmLog) WriteTo(b []byte, _ net.Addr) (int, error) {
	if l.record {
		h, _, err := DecodeDatagram(b)
		if err != nil {
			return 0, err
		}
		l.sent = append(l.sent, sentDatagram{tick: l.tick, typ: h.Type, flow: h.Flow, seq: h.Seq, label: h.Feedback})
	}
	return len(b), nil
}

func (l *swarmLog) Close() error { return nil }

// steppedSwarm builds a swarm whose sockets are one swarmLog, to be
// driven through helloStep (or scanStep) and handle on a synthetic clock.
func steppedSwarm(tb testing.TB, cfg SwarmConfig, now time.Time, record bool) (*Swarm, *swarmLog) {
	tb.Helper()
	log := &swarmLog{record: record}
	cfg.Server = fakeAddr("server")
	cfg.Listen = func() (net.PacketConn, error) { return log, nil }
	s, err := NewSwarm(cfg, now)
	if err != nil {
		tb.Fatal(err)
	}
	return s, log
}

// scanStep is the hello driver as it was before the receivers went on the
// timing wheel: every receiver, every tick, under its lock. It is kept as
// the oracle helloStep is held to — same hellos on the same ticks, same
// receiver state — and touches no timer. Both run the same per-receiver
// step, so what the comparison checks is the wheel's index: that it wakes
// every receiver with something due, on time.
func scanStep(s *Swarm, now time.Time) {
	for _, r := range s.recvs {
		r.mu.Lock()
		h, send := s.stepLocked(r, now)
		r.mu.Unlock()
		if send {
			s.out[r.sock].send(h)
		}
	}
}

// swarmEvent is one datagram from the scripted server.
type swarmEvent struct {
	at   time.Time
	sock int
	b    []byte
}

// scriptedServer answers the hellos it is shown the way a loaded server
// might — ignore, reject (with and without a retry-after hint), admit
// and stream, then close for a retryable or a terminal reason — all off
// one seeded source, so a run replays from its seed.
type scriptedServer struct {
	tb      testing.TB
	rng     *rand.Rand
	first   uint32
	sockets int
	streams map[uint32]*scriptedStream
}

type scriptedStream struct {
	left  int // ticks until the close
	seq   [SeqSpaces]uint64
	epoch uint64
}

func (v *scriptedServer) datagram(h Header) []byte {
	b, err := EncodeDatagram(h, nil)
	if err != nil {
		v.tb.Fatal(err)
	}
	return b
}

// answer returns the datagrams the server sends between the tick at now
// and the next one: replies to that tick's hellos, plus a tick's worth of
// every open stream.
func (v *scriptedServer) answer(hellos []sentDatagram, now time.Time) []swarmEvent {
	var evs []swarmEvent
	emit := func(flow uint32, h Header) {
		sock := int(flow-v.first) % v.sockets
		if v.rng.Intn(50) == 0 {
			sock = (sock + 1) % v.sockets // a stray delivery on a neighbour's socket
		}
		at := now.Add(time.Duration(1 + v.rng.Int63n(int64(20*time.Millisecond))))
		evs = append(evs, swarmEvent{at: at, sock: sock, b: v.datagram(h)})
	}
	for _, hello := range hellos {
		if hello.typ != TypeHello || v.streams[hello.flow] != nil {
			continue
		}
		switch p := v.rng.Intn(100); {
		case p < 15: // lost
		case p < 25:
			emit(hello.flow, ControlHeader(TypeReject, hello.flow, ReasonServerFull, 0, 0))
		case p < 40:
			retry := []time.Duration{100 * time.Millisecond, 700 * time.Millisecond, 3 * time.Second}[v.rng.Intn(3)]
			emit(hello.flow, ControlHeader(TypeReject, hello.flow, ReasonServerFull, retry, 0))
		case p < 45: // admitted and closed before the first datagram
			emit(hello.flow, ControlHeader(TypeClose, hello.flow, ReasonDraining, 0, 0))
		default:
			v.streams[hello.flow] = &scriptedStream{left: 1 + v.rng.Intn(40)}
		}
	}
	// Map order must not reach the script: walk the flows in order.
	flows := make([]uint32, 0, len(v.streams))
	for flow := range v.streams {
		flows = append(flows, flow)
	}
	slices.Sort(flows)
	for _, flow := range flows {
		st := v.streams[flow]
		for n := 1 + v.rng.Intn(3); n > 0; n-- {
			l := v.rng.Intn(3)
			h := Header{Type: TypeData, Color: packet.LayerColor(l), Flow: flow, Seq: st.seq[l]}
			st.seq[l] += 1 + uint64(v.rng.Intn(8)/7) // now and then a lost datagram
			if v.rng.Intn(3) == 0 {
				st.epoch++
				h.Feedback = packet.Feedback{RouterID: 1, Epoch: st.epoch, Loss: 0.1, Valid: true}
			}
			emit(flow, h)
		}
		if st.left--; st.left <= 0 {
			reason := []Reason{ReasonComplete, ReasonDraining, ReasonIdle, ReasonStuck}[v.rng.Intn(4)]
			emit(flow, ControlHeader(TypeClose, flow, reason, 0, 0))
			delete(v.streams, flow)
		}
	}
	// Deliver in time order, as one socket would.
	slices.SortStableFunc(evs, func(a, b swarmEvent) int { return a.at.Compare(b.at) })
	return evs
}

// TestSwarmHelloStepMatchesScan drives the indexed swarm and the scan it
// replaced through the same seeded script on a synthetic clock whose
// ticks are deliberately off the wheel's grid, and requires the same
// datagrams out on the same ticks and the same state in every receiver.
func TestSwarmHelloStepMatchesScan(t *testing.T) {
	cases := []struct {
		name string
		cfg  SwarmConfig
	}{
		{"ramp+reconnect+storm", SwarmConfig{Receivers: 120, Sockets: 4, FirstFlow: 1000, Ramp: 3 * time.Second,
			HelloRetry: 200 * time.Millisecond, Reconnect: true,
			Storm: SwarmStorm{At: 12 * time.Second, Fraction: 0.4, Resume: 2 * time.Second}}},
		{"ramp+storm", SwarmConfig{Receivers: 120, Sockets: 4, Ramp: 3 * time.Second,
			HelloRetry: 200 * time.Millisecond,
			Storm:      SwarmStorm{At: 1500 * time.Millisecond, Fraction: 0.25, Resume: time.Second}}},
		{"burst+reconnect", SwarmConfig{Receivers: 64, Sockets: 3, FirstFlow: 7, Reconnect: true}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed = seed
				t0 := time.Unix(1_700_000_000, 0)
				indexed, ilog := steppedSwarm(t, cfg, t0, true)
				scanned, slog := steppedSwarm(t, cfg, t0, true)
				server := &scriptedServer{tb: t, rng: rand.New(rand.NewSource(seed)),
					first: indexed.cfg.FirstFlow, sockets: indexed.cfg.Sockets, streams: map[uint32]*scriptedStream{}}

				const ticks = 1600 // 40 s
				woken := 0
				for k := 1; k <= ticks; k++ {
					now := t0.Add(time.Duration(k)*helloTick + time.Duration(server.rng.Int63n(int64(3*time.Millisecond))))
					ilog.tick, slog.tick = k, k
					from := len(ilog.sent)
					indexed.helloStep(now)
					scanStep(scanned, now)
					woken += len(indexed.fired)
					for _, ev := range server.answer(ilog.sent[from:], now) {
						indexed.handle(ev.sock, ev.b, ev.at)
						scanned.handle(ev.sock, ev.b, ev.at)
					}
					if !reflect.DeepEqual(ilog.sent[from:], slog.sent[from:]) {
						t.Fatalf("tick %d: indexed swarm sent %+v, the scan %+v", k, ilog.sent[from:], slog.sent[from:])
					}
				}
				got, want := indexed.Stats(), scanned.Stats()
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("receiver %d:\nindexed %+v\nscan    %+v", i, got[i], want[i])
					}
				}

				// The script has to have gone everywhere the state machine goes.
				var sum SwarmReceiverStats
				for i, st := range want {
					// Startup runs from the receiver's first hello to its first
					// datagram, and only a receiver that got data has one.
					wantStartup := st.Startup > 0 && st.Startup <= st.FirstAt.Sub(t0)
					if st.Datagrams == 0 {
						wantStartup = st.Startup == 0
					}
					if !wantStartup {
						t.Fatalf("receiver %d: startup %v with %d datagrams, the first at %v", i, st.Startup, st.Datagrams, st.FirstAt)
					}
					sum.HellosSent += st.HellosSent
					sum.Rejects += st.Rejects
					sum.Closes += st.Closes
					sum.Reconnects += st.Reconnects
					sum.Resumes += st.Resumes
					sum.FeedbackSent += st.FeedbackSent
					sum.CrossDeliveries += st.CrossDeliveries
				}
				if sum.HellosSent == 0 || sum.Rejects == 0 || sum.Closes == 0 || sum.FeedbackSent == 0 || sum.CrossDeliveries == 0 {
					t.Fatalf("script left a path unvisited: %+v", sum)
				}
				if (cfg.Reconnect || cfg.Storm.Fraction > 0) && (sum.Reconnects == 0 || sum.Resumes == 0) {
					t.Fatalf("no reconnect completed: %+v", sum)
				}
				// And the index has to have been one: a scan wakes every
				// receiver every tick, the wheel only those with a deadline
				// (a hello, an early fire sent back, a timer outliving its
				// reason, a storm transition).
				if limit := 3*int(sum.HellosSent) + 4*cfg.Receivers; woken > limit {
					t.Fatalf("woke receivers %d times for %d hellos (limit %d; a scan would make it %d)",
						woken, sum.HellosSent, limit, ticks*cfg.Receivers)
				}
			})
		}
	}
}

// streamingSwarm returns a swarm of n receivers that have all helloed and
// received data, stepped far enough that no hello retry is pending, plus
// idle more that are still helloing into the void.
func streamingSwarm(tb testing.TB, n, helloing int) (*Swarm, time.Time) {
	tb.Helper()
	t0 := time.Unix(1_700_000_000, 0)
	s, _ := steppedSwarm(tb, SwarmConfig{Receivers: n + helloing, Sockets: 4}, t0, false)
	now := t0.Add(helloTick)
	s.helloStep(now)
	for i := 0; i < n; i++ {
		b, err := EncodeDatagram(Header{Type: TypeData, Color: packet.Green, Flow: s.cfg.FirstFlow + uint32(i)}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		s.handle(i%4, b, now)
	}
	// Two laps of the wheel: the retry timers of the streaming receivers
	// fire and are not re-armed, the helloing ones reach their backoff
	// cap, and every slot has the capacity it keeps.
	for i := 0; i < int(2*swarmWheelSlots*swarmWheelTick/helloTick); i++ {
		now = now.Add(helloTick)
		s.helloStep(now)
	}
	return s, now
}

// TestSwarmHelloStepZeroAllocs: a steady-state tick — streaming receivers
// asleep, a few helloing ones waking, sending and re-arming — allocates
// nothing.
func TestSwarmHelloStepZeroAllocs(t *testing.T) {
	s, now := streamingSwarm(t, 1000, 16)
	woken := 0
	if allocs := testing.AllocsPerRun(400, func() {
		now = now.Add(helloTick)
		s.helloStep(now)
		woken += len(s.fired)
	}); allocs != 0 {
		t.Fatalf("a hello tick allocates %v times", allocs)
	}
	if woken == 0 {
		t.Fatal("the measured ticks woke nobody")
	}
}

// BenchmarkSwarmHelloTick is one tick of the hello driver over streaming
// receivers: none has a deadline, so the tick wakes none of them and its
// cost is the cursor walk, whatever the receiver count.
func BenchmarkSwarmHelloTick(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("receivers=%d", n), func(b *testing.B) {
			s, now := streamingSwarm(b, n, 0)
			woken := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(helloTick)
				s.helloStep(now)
				woken += len(s.fired)
			}
			if woken != 0 {
				b.Fatalf("%d streaming receivers were woken %d times", n, woken)
			}
		})
	}
}

// FuzzSwarmHandle throws arbitrary datagrams at the swarm's front door:
// raw bytes as they come, or the same bytes re-addressed with the
// fuzzer's type, colour and flow under a good checksum so they get past
// the decoder. The flow may fall below FirstFlow, past the last receiver,
// or wrap, and the receivers probe. The contract: no panic, no index out
// of range, nothing changes in any receiver but the one addressed, and a
// datagram that does not decode moves only the decode-error count and
// writes nothing.
func FuzzSwarmHandle(f *testing.F) {
	const (
		modeRaw     = 1 << iota // deliver the bytes untouched
		modeStormed             // the storm has fired: receivers 0 and 1 are muted
		modeWrap                // FirstFlow sits just below 2³², so the flows wrap through 0
	)
	for _, b := range codecSeeds(f) {
		f.Add(b, uint8(TypeData), uint8(packet.Yellow), uint32(1003), uint8(1), uint8(0))
		f.Add(b, uint8(TypeData), uint8(packet.Green), uint32(1000), uint8(9), uint8(modeStormed))
		f.Add(b, uint8(TypeReject), uint8(packet.ACK), uint32(1002), uint8(0), uint8(0))
		f.Add(b, uint8(TypeClose), uint8(packet.ACK), uint32(1003), uint8(0), uint8(0))
		f.Add(b, uint8(TypeClose), uint8(packet.ACK), uint32(999), uint8(0), uint8(0))     // below FirstFlow
		f.Add(b, uint8(TypeData), uint8(packet.Red), uint32(1006), uint8(0), uint8(0))     // one past the end
		f.Add(b, uint8(TypeData), uint8(packet.Red), uint32(1), uint8(0), uint8(modeWrap)) // wrapped
		f.Add(b, uint8(TypeHello), uint8(packet.ACK), uint32(1001), uint8(0), uint8(0))
		f.Add(b, uint8(0xEE), uint8(0xEE), uint32(1001), uint8(0), uint8(0))
		f.Add(b, uint8(TypeData), uint8(packet.Green), uint32(1001), uint8(0), uint8(modeRaw))
	}

	f.Fuzz(func(t *testing.T, data []byte, typ, color uint8, flow uint32, sock, mode uint8) {
		const n = 6
		cfg := SwarmConfig{Receivers: n, Sockets: 2, FirstFlow: 1000, Reconnect: true, ProbeIdle: 100 * time.Millisecond,
			Storm: SwarmStorm{At: time.Second, Fraction: 0.3, Resume: time.Second}}
		if mode&modeWrap != 0 {
			cfg.FirstFlow = ^uint32(0) - 2
		}
		t0 := time.Unix(1_700_000_000, 0)
		s, log := steppedSwarm(t, cfg, t0, true)
		first := s.cfg.FirstFlow

		// One receiver in every state: 0 and 1 armed for the storm (muted
		// once it fires), 2 rejected and backing off, 3 streaming, 4 done,
		// 5 still helloing.
		now := t0.Add(helloTick)
		s.helloStep(now)
		deliver := func(h Header) {
			b, err := EncodeDatagram(h, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.handle(int(h.Flow-first)%2, b, now)
		}
		deliver(ControlHeader(TypeReject, first+2, ReasonServerFull, 300*time.Millisecond, 0))
		deliver(Header{Type: TypeData, Color: packet.Green, Flow: first + 1})
		deliver(Header{Type: TypeData, Color: packet.Green, Flow: first + 3})
		deliver(Header{Type: TypeData, Color: packet.Green, Flow: first + 4})
		deliver(ControlHeader(TypeClose, first+4, ReasonComplete, 0, 0))
		if mode&modeStormed != 0 {
			now = t0.Add(time.Second + helloTick)
			s.helloStep(now)
		}

		b := append([]byte(nil), data...)
		if mode&modeRaw == 0 && len(b) >= HeaderSize {
			b[offType], b[offColor] = typ, color
			binary.BigEndian.PutUint32(b[offFlow:], flow)
			patchCRC(b)
		}
		_, _, decodeErr := DecodeDatagram(b)
		if decodeErr == nil {
			flow = binary.BigEndian.Uint32(b[offFlow:]) // a raw datagram names its own
		}

		before, writes, decodes := s.Stats(), len(log.sent), s.DecodeErrors()
		s.handle(int(sock), b, now.Add(time.Millisecond))
		after := s.Stats()
		if decodeErr != nil && (s.DecodeErrors() != decodes+1 || len(log.sent) != writes) {
			t.Fatalf("undecodable datagram (%v): %d decode errors after %d, %d writes after %d",
				decodeErr, s.DecodeErrors(), decodes, len(log.sent), writes)
		}
		for i := range before {
			if decodeErr == nil && uint32(i) == flow-first {
				continue
			}
			if !reflect.DeepEqual(before[i], after[i]) {
				t.Fatalf("datagram for flow %d (receiver %d, decode error %v) changed receiver %d:\nbefore %+v\nafter  %+v",
					flow, flow-first, decodeErr, i, before[i], after[i])
			}
		}
		// Whatever it did to its receiver, the hello driver carries on.
		for k := 0; k < 200; k++ {
			now = now.Add(helloTick)
			s.helloStep(now)
		}
	})
}
