package session

// Ingress tests: the front door on the netip path — what a datagram's
// source costs, what its key reads, and what a flood of made-up sources can
// take from the server.

import (
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/wire"
)

// feedbackFrom plays the socket on the netip path: one feedback datagram for
// flow with the given epoch, from ap, encoded into buf.
func feedbackFrom(t *testing.T, s *Server, buf []byte, ap netip.AddrPort, flow uint32, epoch uint64) []byte {
	t.Helper()
	h := wire.Header{Type: wire.TypeFeedback, Color: packet.ACK, Flow: flow,
		Feedback: packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.01, Valid: true}}
	b, err := wire.AppendDatagram(buf[:0], h, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.handleDatagram(b, origin{ap: ap}, s.cfg.Clock.Now())
	return b
}

// TestHandleDatagramFeedbackZeroAllocs is the allocation contract of the
// front door: feedback from an address seen before costs no allocation from
// the read to the session's controllers. Each run is two full batches, so a
// cost paid once per dispatch shows as well.
func TestHandleDatagramFeedbackZeroAllocs(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, nil)
	peer := netip.MustParseAddrPort("10.77.0.1:20001")
	s.handleDatagram(helloDatagram(t, 1), origin{ap: peer}, clk.Now())
	if pumpLane(s) != 1 {
		t.Fatal("the hello admitted no session")
	}
	buf := make([]byte, 0, wire.HeaderSize)
	epoch := uint64(0)
	run := func() {
		for i := 0; i < 2*s.cfg.BatchCount; i++ {
			epoch++
			buf = feedbackFrom(t, s, buf, peer, 1, epoch)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%d feedback datagrams allocate %.0f times, want 0", 2*s.cfg.BatchCount, allocs)
	}
	if got := s.SessionStats()[0].FeedbackAccepted; got != epoch {
		t.Fatalf("the session accepted %d of %d feedback labels", got, epoch)
	}
}

// TestKeyTableMatchesNetAddr: the interned text is what the net.Addr of the
// same source prints, for every form of address a UDP socket can report, and
// the address a session is given to write to prints the same again.
func TestKeyTableMatchesNetAddr(t *testing.T) {
	s, _, _ := handServer(t, discard{}, nil)
	for _, text := range []string{
		"10.77.0.1:20001",
		"[2001:db8::1]:443",
		"[::1]:9000",
		"[fe80::1%eth0]:9000",
		"[::ffff:192.0.2.7]:80", // what a dual-stack socket reports for an IPv4 peer
	} {
		ap := netip.MustParseAddrPort(text)
		want := net.UDPAddrFromAddrPort(ap).String() // what ReadFrom returns for this source
		for range 2 {                                // the miss, then the hit
			if got := s.keyOf(origin{ap: ap}, 3); got != (Key{Addr: want, Flow: 3}) {
				t.Errorf("%s: key %q, want %q", text, got.Addr, want)
			}
		}
		if got := (origin{ap: ap}).netAddr().String(); got != want {
			t.Errorf("%s: a session would write to %q, want %q", text, got, want)
		}
	}
}

// TestKeyTableBoundedUnderSpoofedFlood: ten times the table's bound of
// feedback datagrams from made-up sources never grow it past the bound, and
// a real receiver's feedback still finds its session afterwards.
func TestKeyTableBoundedUnderSpoofedFlood(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.MaxSessions = 8
		cfg.BatchCount = 1
	})
	peer := netip.MustParseAddrPort("[2001:db8::5]:7000")
	s.handleDatagram(helloDatagram(t, 1), origin{ap: peer}, clk.Now())
	pumpLane(s)
	bound := s.keys.max
	if bound != 2*s.cfg.MaxSessions {
		t.Fatalf("bound %d, want twice MaxSessions (%d)", bound, s.cfg.MaxSessions)
	}
	buf := make([]byte, 0, wire.HeaderSize)
	for i := 0; i < 10*bound; i++ {
		spoofed := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), uint16(1024+i))
		buf = feedbackFrom(t, s, buf, spoofed, 1, uint64(i+1))
		if len(s.keys.m) > bound {
			t.Fatalf("after %d spoofed sources the table holds %d keys, bound %d", i+1, len(s.keys.m), bound)
		}
	}
	if got := s.SessionStats()[0].FeedbackAccepted; got != 0 {
		t.Fatalf("spoofed feedback reached the session %d times", got)
	}
	feedbackFrom(t, s, buf, peer, 1, 1)
	if got := s.SessionStats()[0].FeedbackAccepted; got != 1 {
		t.Fatalf("after the flood the receiver's feedback was accepted %d times, want 1", got)
	}
}

// sortedDispatch is dispatch as it was before it applied a batch in arrival
// order: the items stably sorted by key, then each session's run of labels
// handed over as one HandleFeedbackBatch.
func sortedDispatch(s *Server, batch []FeedbackItem, now time.Time) {
	s.fbBatches.Add(1)
	s.fbItems.Add(uint64(len(batch)))
	slices.SortStableFunc(batch, func(a, b FeedbackItem) int { return a.Key.Compare(b.Key) })
	var fbs []packet.Feedback
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Key == batch[i].Key {
			j++
		}
		if sess := s.table.Get(batch[i].Key); sess != nil {
			fbs = fbs[:0]
			for _, it := range batch[i:j] {
				fbs = append(fbs, it.FB)
			}
			sess.HandleFeedbackBatch(fbs, now)
		}
		i = j
	}
}

// TestDispatchArrivalOrderMatchesSorted: applying a batch label by label in
// arrival order leaves every session exactly where the sorted, grouped
// dispatch left it. Twin servers take the same batches — several sessions'
// labels interleaved, with repeated and out-of-order epochs, a router
// change, invalid labels and a key with no session — one tick apart, and
// every session's Stats must match after each.
func TestDispatchArrivalOrderMatchesSorted(t *testing.T) {
	const flows = 5
	var twins [2]*Server
	var clocks [2]*fakeClock
	for i := range twins {
		twins[i], clocks[i], _ = handServer(t, discard{}, pacedConfig)
		for f := uint32(1); f <= flows; f++ {
			hello(t, twins[i], f, clocks[i].Now())
		}
		pumpLane(twins[i])
	}
	rng := rand.New(rand.NewSource(38))
	epochs := make([]uint64, flows+2)
	var fired [2][]*Timer
	for round := 0; round < 200; round++ {
		batch := make([]FeedbackItem, 1+rng.Intn(96))
		for i := range batch {
			f := 1 + rng.Intn(flows+1) // flow flows+1 has no session
			switch r := rng.Intn(10); {
			case r < 5:
				epochs[f]++
			case r < 7 && epochs[f] > 2:
				epochs[f] -= 2 // out of order
			}
			fb := packet.Feedback{RouterID: 1, Epoch: epochs[f], Loss: rng.Float64()*0.2 - 0.05, Valid: rng.Intn(20) != 0}
			if round >= 100 && f == 2 {
				fb.RouterID = 9 // the bottleneck moves
			}
			batch[i] = FeedbackItem{Key: Key{Addr: handPeer.String(), Flow: uint32(f)}, FB: fb}
		}
		twins[0].dispatch(slices.Clone(batch), clocks[0].Now())
		sortedDispatch(twins[1], batch, clocks[1].Now())
		got, want := twins[0].SessionStats(), twins[1].SessionStats()
		if len(got) != flows || !slices.Equal(got, want) {
			t.Fatalf("round %d: arrival order left\n%+v\nthe sorted dispatch\n%+v", round, got, want)
		}
		for i := range twins {
			step(t, twins[i], clocks[i], &fired[i])
		}
	}
	var accepted, changes uint64
	for _, st := range twins[0].SessionStats() {
		accepted += st.FeedbackAccepted
		changes += st.RouterChanges
	}
	if accepted == 0 || changes == 0 {
		t.Fatalf("%d labels accepted, %d router changes: the script does not exercise the sessions", accepted, changes)
	}
}
