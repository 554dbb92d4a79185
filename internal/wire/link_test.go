package wire

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/units"
)

// refLink is the link as it was before its buffers were pooled and its
// lines kept their arrays: one make per datagram, queue[1:] and append, a
// sort.Search insert. It is the reference TestLinkMatchesReference holds
// the link to, kept in the steps the test drives (send, transmit, hand
// over) instead of on goroutines.
type refLink struct {
	cfg   LinkConfig
	start time.Time
	rng   *rand.Rand

	queue     []queued
	bytes     int
	out       []outgoing
	busyUntil time.Time
	stats     LinkStats
	delivered [][]byte
}

func newRefLink(cfg LinkConfig) *refLink {
	return &refLink{cfg: cfg, start: cfg.Now(), rng: rand.New(rand.NewSource(cfg.seed))}
}

func (r *refLink) send(b []byte) {
	if r.cfg.loss > 0 && r.rng.Float64() < r.cfg.loss {
		r.stats.RandomDrops++
		return
	}
	c := append([]byte(nil), b...)
	if r.cfg.Marker.Mark(c) {
		r.stats.MarkerDrops++
		return
	}
	q := queued{b: c, at: r.cfg.Now(), prio: r.cfg.Marker.Priority(c)}
	d := r.cfg.Faults.Filter(q.at.Sub(r.start), fault.Packet{Size: len(c), Class: classify(c)})
	if d.Drop {
		r.stats.FaultDrops++
		return
	}
	if d.StripFeedback {
		_ = ClearFeedback(c)
	}
	if d.Corrupt {
		fault.Scramble(c, d.Bits)
	}
	q.extra = d.ExtraDelay
	if d.Duplicate {
		dup := q
		dup.b = append([]byte(nil), c...)
		r.enqueue(dup)
	}
	r.enqueue(q)
}

func (r *refLink) enqueue(q queued) {
	for r.bytes+len(q.b) > r.cfg.QueueBytes && len(r.queue) > 0 {
		worst, worstIdx := q.prio, -1
		for i := len(r.queue) - 1; i >= 0; i-- {
			if r.queue[i].prio > worst {
				worst, worstIdx = r.queue[i].prio, i
			}
		}
		if worstIdx < 0 {
			r.stats.OverflowDrops++
			return
		}
		r.bytes -= len(r.queue[worstIdx].b)
		r.queue = append(r.queue[:worstIdx], r.queue[worstIdx+1:]...)
		r.stats.OverflowDrops++
	}
	r.queue = append(r.queue, q)
	r.bytes += len(q.b)
	r.stats.Enqueued++
}

func (r *refLink) transmit() {
	q := r.queue[0]
	r.queue = r.queue[1:]
	r.bytes -= len(q.b)
	if r.cfg.Bandwidth > 0 {
		if r.busyUntil.Before(q.at) {
			r.busyUntil = q.at
		}
		r.busyUntil = r.busyUntil.Add(r.cfg.Bandwidth.TransmissionTime(len(q.b)))
	} else {
		r.busyUntil = q.at
	}
	o := outgoing{b: q.b, at: r.busyUntil.Add(r.cfg.Delay + q.extra)}
	i := sort.Search(len(r.out), func(i int) bool { return r.out[i].at.After(o.at) })
	r.out = append(r.out, outgoing{})
	copy(r.out[i+1:], r.out[i:])
	r.out[i] = o
}

func (r *refLink) handOver() {
	o := r.out[0]
	r.out = r.out[1:]
	r.stats.Delivered++
	r.delivered = append(r.delivered, o.b)
}

// advance is the reference's loop: at now it hands over what is due and puts
// the queue's head on the wire whenever the wire is free, until neither is
// left to do.
func (r *refLink) advance(now time.Time) {
	for {
		switch {
		case len(r.out) > 0 && !r.out[0].at.After(now):
			r.handOver()
		case len(r.queue) > 0 && !r.busyUntil.After(now):
			r.transmit()
		default:
			return
		}
	}
}

// queuedOf and outOf copy a link's two lines.
func queuedOf(l *link) []queued { return append([]queued(nil), l.queue.held()...) }
func outOf(l *link) []outgoing  { return append([]outgoing(nil), l.out.held()...) }

// TestLinkMatchesReference feeds one seeded script of arrivals and link
// work, on a synthetic clock in the past so that nothing sleeps, to the link
// and to the reference, each behind a gateway and a fault plan of its own.
// After every step the two hold the same datagrams in the same places with
// the same counters — so the same ones were evicted — and at the end they
// have delivered the same bytes in the same order. The tiny queue is there
// for the datagram that alone exceeds it and is admitted into an empty queue
// all the same, the unshaped link for datagrams due at one and the same
// instant.
//
// The script's link work comes in two kinds. The plain cases take, transmit
// and hand over in any order the seed picks, which holds the lines and
// counters to the reference whatever the timing. The loop cases call step,
// the body of the link's goroutine, at the instants it asks for or later, as
// a late wake-up would: the reference does what its clock says is due, and
// step must have done the same and must not sleep past the next of it — with
// Delay 0, where a datagram is delivered as its transmission ends, and with
// Delay > 0 plus reordering faults.
func TestLinkMatchesReference(t *testing.T) {
	colors := []packet.Color{packet.Green, packet.Yellow, packet.Red, packet.BestEffort}
	for _, tc := range []struct {
		name       string
		bandwidth  units.BitRate
		queueBytes int
		delay      time.Duration // 0 also leaves the reordering fault out
		loop       bool
		arrive     float64 // share of steps that are arrivals
		minEvicted uint64
	}{
		{"congested", 10 * units.Mbps, 6000, 5 * time.Millisecond, false, 0.65, 500},
		{"tiny", 10 * units.Mbps, 1000, 5 * time.Millisecond, false, 0.40, 100},
		{"unshaped", 0, 6000, 5 * time.Millisecond, false, 0.65, 500},
		{"loop-congested-delay0", 10 * units.Mbps, 6000, 0, true, 0.65, 500},
		{"loop-congested-reorder", 10 * units.Mbps, 6000, 5 * time.Millisecond, true, 0.65, 500},
		{"loop-tiny-delay0", 10 * units.Mbps, 1000, 0, true, 0.40, 100},
		{"loop-tiny-reorder", 10 * units.Mbps, 1000, 5 * time.Millisecond, true, 0.40, 100},
		{"loop-unshaped-delay0", 0, 6000, 0, true, 0.65, 0},
		{"loop-unshaped-reorder", 0, 6000, 5 * time.Millisecond, true, 0.65, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := time.Unix(1000, 0)
			now := func() time.Time { return clk }
			events := []fault.Event{
				{Kind: fault.KindDuplicate, From: 0, To: time.Hour, Prob: 0.1},
				{Kind: fault.KindCorrupt, From: 0, To: time.Hour, Prob: 0.05},
				{Kind: fault.KindBurstLoss, From: 0, To: time.Hour, PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.8},
				{Kind: fault.KindStarveFeedback, From: 100 * time.Millisecond, To: 200 * time.Millisecond},
			}
			if tc.delay > 0 {
				events = append(events, fault.Event{Kind: fault.KindReorder, From: 0, To: time.Hour, Prob: 0.2, MaxDelay: 20 * time.Millisecond})
			}
			plan := fault.Plan{Seed: 5, Events: events}
			config := func() LinkConfig {
				return LinkConfig{
					Bandwidth: tc.bandwidth, Delay: tc.delay, QueueBytes: tc.queueBytes,
					loss: 0.02, seed: 9, Now: now, Faults: fault.NewInjector(plan),
					Marker: NewGateway(GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: 10 * units.Mbps, Now: now}),
				}
			}
			ref := newRefLink(config())
			var delivered [][]byte
			l := newIdleLink(config(), func(b []byte, _ net.Addr) bool {
				delivered = append(delivered, append([]byte(nil), b...))
				return false
			})
			var next time.Time // when the loop asked to be woken

			rng := rand.New(rand.NewSource(13))
			arrival := func() []byte {
				if rng.Intn(10) == 0 { // control: ranks above green
					b, err := EncodeDatagram(Header{Type: TypeFeedback, Color: packet.ACK, Seq: rng.Uint64()}, nil)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				h := Header{Type: TypeData, Color: colors[rng.Intn(len(colors))], Seq: rng.Uint64()}
				b, err := EncodeDatagram(h, make([]byte, rng.Intn(MaxPayload+1)))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			oversized := false
			for step := 0; step < 4000; step++ {
				if rng.Intn(4) > 0 { // one step in four happens at the instant of the last
					clk = clk.Add(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
				switch r := rng.Float64(); {
				case r < tc.arrive:
					b := arrival()
					before := queuedOf(l)
					oversized = oversized || (len(before) == 0 && len(b) > tc.queueBytes)
					ref.send(b)
					l.send(b, nil)
					checkEvictions(t, step, before, queuedOf(l))
				case tc.loop:
					if !next.IsZero() && next.After(clk) && rng.Intn(2) == 0 {
						clk = next // woken on time, not late
					}
					ref.advance(clk)
					var idle bool
					next, idle, _ = l.step(clk)
					checkWake(t, step, ref, clk, next, idle)
				case r < tc.arrive+(1-tc.arrive)*0.6:
					if len(ref.queue) == 0 {
						continue
					}
					ref.transmit()
					q, _, _ := l.take()
					l.transmit(q)
				default:
					if len(ref.out) == 0 {
						continue
					}
					ref.handOver()
					l.handOver(l.out.pop())
				}

				got, want := queuedOf(l), ref.queue
				if len(got) != len(want) || l.bytes != ref.bytes {
					t.Fatalf("step %d: queue holds %d datagrams, %d bytes; the reference %d, %d", step, len(got), l.bytes, len(want), ref.bytes)
				}
				for i := range got {
					if got[i].prio != want[i].prio || !got[i].at.Equal(want[i].at) || got[i].extra != want[i].extra || !bytes.Equal(got[i].b, want[i].b) {
						t.Fatalf("step %d: queue position %d differs from the reference", step, i)
					}
				}
				gotOut, wantOut := outOf(l), ref.out
				if len(gotOut) != len(wantOut) {
					t.Fatalf("step %d: %d datagrams in propagation, the reference %d", step, len(gotOut), len(wantOut))
				}
				for i := range gotOut {
					if !gotOut[i].at.Equal(wantOut[i].at) || !bytes.Equal(gotOut[i].b, wantOut[i].b) {
						t.Fatalf("step %d: propagation position %d differs from the reference", step, i)
					}
				}
				if st := l.Stats(); st != ref.stats {
					t.Fatalf("step %d: stats %+v, the reference %+v", step, st, ref.stats)
				}
				checkLinkBooks(t, step, l)
			}

			if len(delivered) != len(ref.delivered) {
				t.Fatalf("delivered %d datagrams, the reference %d", len(delivered), len(ref.delivered))
			}
			for i := range delivered {
				if !bytes.Equal(delivered[i], ref.delivered[i]) {
					t.Fatalf("delivery %d differs from the reference", i)
				}
			}
			st, fs := l.Stats(), l.cfg.Faults.Stats()
			if st.OverflowDrops < tc.minEvicted || st.RandomDrops == 0 || st.FaultDrops == 0 || st.Delivered == 0 ||
				fs.Duplicated == 0 || (tc.delay > 0) != (fs.Reordered > 0) || fs.Corrupted == 0 || fs.Starved == 0 {
				t.Fatalf("the script left a path untaken: link %+v, faults %+v", st, fs)
			}
			if tc.queueBytes < MaxDatagram && !oversized {
				t.Fatal("the script never offered an oversized datagram to an empty queue")
			}
		})
	}
}

// checkWake holds what step reported at now to the reference, which has
// just done everything due by now: an idle loop is one with a free wire and
// nothing queued, and the loop never asks to sleep past the next delivery
// or past the instant the wire frees for a queued datagram.
func checkWake(t *testing.T, step int, ref *refLink, now, next time.Time, idle bool) {
	t.Helper()
	if want := len(ref.queue) == 0 && !ref.busyUntil.After(now); idle != want {
		t.Fatalf("step %d: step reports idle=%v with %d datagrams queued, the wire busy until %v at %v", step, idle, len(ref.queue), ref.busyUntil, now)
	}
	if !next.IsZero() && !next.After(now) {
		t.Fatalf("step %d: step asks to be woken at %v, not after now %v", step, next, now)
	}
	if len(ref.out) > 0 && (next.IsZero() || next.After(ref.out[0].at)) {
		t.Fatalf("step %d: step would sleep to %v past the delivery at %v", step, next, ref.out[0].at)
	}
	if len(ref.queue) > 0 && (next.IsZero() || next.After(ref.busyUntil)) {
		t.Fatalf("step %d: step would sleep to %v past the wire freeing at %v", step, next, ref.busyUntil)
	}
}

// checkLinkBooks holds the link's own accounting to what it holds: prios
// counts the queue by rank in rank order, and the free lists keep each
// buffer in its class and no more bytes than their bound.
func checkLinkBooks(t *testing.T, step int, l *link) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	counts := map[int]int{}
	for _, q := range l.queue.held() {
		counts[q.prio]++
	}
	if len(l.prios) != len(counts) {
		t.Fatalf("step %d: prios %v, the queue holds ranks %v", step, l.prios, counts)
	}
	for i, c := range l.prios {
		if counts[c.prio] != c.n || (i > 0 && l.prios[i-1].prio >= c.prio) {
			t.Fatalf("step %d: prios %v, the queue holds ranks %v", step, l.prios, counts)
		}
	}
	idle := 0
	for c, list := range l.free {
		for _, b := range list {
			if cap(b) != 1<<(c+minClassBits) {
				t.Fatalf("step %d: a %d-byte buffer in the %d-byte class", step, cap(b), 1<<(c+minClassBits))
			}
			idle += cap(b)
		}
	}
	if idle != l.freeBytes || idle > l.maxFreeBytes() {
		t.Fatalf("step %d: the free lists hold %d bytes, count %d, bound %d", step, idle, l.freeBytes, l.maxFreeBytes())
	}
}

// checkEvictions holds one send to the paper's Fig. 4 order: of what was
// queued before it, nothing may have left while something less important
// stayed — green is never evicted while yellow or red are queued — and among
// equals the newest goes first.
func checkEvictions(t *testing.T, step int, before, after []queued) {
	t.Helper()
	// What was queued keeps its order, so after's old part is a subsequence
	// of before: walk both to find what is missing.
	j := 0
	for i, q := range before {
		if j < len(after) && &after[j].b[0] == &q.b[0] {
			j++
			continue
		}
		for _, kept := range after {
			if kept.prio > q.prio {
				t.Fatalf("step %d: a priority-%d datagram was evicted while a priority-%d one stayed", step, q.prio, kept.prio)
			}
		}
		for _, later := range before[i+1:] {
			for _, kept := range after[j:] {
				if later.prio == q.prio && &kept.b[0] == &later.b[0] {
					t.Fatalf("step %d: among priority-%d equals an older datagram was evicted before a newer one", step, q.prio)
				}
			}
		}
	}
}

// TestFifoMatchesSlice drives a fifo and a plain slice through the same
// random pushes, pops, inserts and removals, across several doublings and
// many slides, and then holds the fifo to its purpose: at a steady depth it
// is not allocated again.
func TestFifoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var f fifo[int]
	var s []int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			f.push(step)
			s = append(s, step)
		case op < 5:
			i := rng.Intn(len(s) + 1)
			f.insert(i, step)
			s = append(s[:i], append([]int{step}, s[i:]...)...)
		case op < 8 && len(s) > 0:
			if got := f.pop(); got != s[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, s[0])
			}
			s = s[1:]
		case len(s) > 0:
			i := rng.Intn(len(s))
			if got := f.remove(i); got != s[i] {
				t.Fatalf("step %d: remove(%d) = %d, want %d", step, i, got, s[i])
			}
			s = append(s[:i], s[i+1:]...)
		}
		if got := f.held(); f.len() != len(s) || !slices.Equal(got, s) {
			t.Fatalf("step %d: fifo holds %v, want %v", step, got, s)
		}
	}
	for f.len() < 100 {
		f.push(0)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		f.push(1)
		f.pop()
	}); allocs != 0 {
		t.Errorf("a push and a pop at a steady depth allocate %.1f times, want 0", allocs)
	}
}

// countConn is the inner socket of the zero-alloc test: it counts writes.
type countConn struct {
	nullConn
	n atomic.Int64
}

func (c *countConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.n.Add(1)
	return len(p), nil
}

// TestShapedConnZeroAllocs is the allocation contract of the live router
// hop, WriteTo through marking, eviction, serialization and propagation to
// the inner socket: in steady state no step of it touches the heap. Each
// run stamps a burst 5 ms ahead of the wall clock, so the serializer sits
// on the first datagram while the rest overflow the queue and the eviction
// path runs every time, then waits for the link to drain.
func TestShapedConnZeroAllocs(t *testing.T) {
	const burst, size = 64, 1000
	var ahead atomic.Int64 // the synthetic clock, unix ns
	now := func() time.Time { return time.Unix(0, ahead.Load()) }
	inner := &countConn{}
	shaped := NewShapedConn(inner, LinkConfig{
		Bandwidth: units.Gbps, QueueBytes: burst / 2 * size, Now: now,
		Marker: NewGateway(GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: units.Gbps, Now: now}),
	})
	defer shaped.Close()
	var datagrams [][]byte
	for _, c := range []packet.Color{packet.Red, packet.Yellow, packet.Green} {
		datagrams = append(datagrams, dataDatagram(t, c, size))
	}
	var sent int64
	run := func() {
		ahead.Store(time.Now().Add(5 * time.Millisecond).UnixNano())
		for i := 0; i < burst; i++ {
			_, _ = shaped.WriteTo(datagrams[i*len(datagrams)/burst], nil)
		}
		sent += burst
		for {
			st := shaped.Stats()
			if int64(st.Delivered+st.OverflowDrops) == sent && inner.n.Load() == int64(st.Delivered) {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	run() // stock the free list and size the two lines
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a burst of %d through ShapedConn allocates %.1f times, want 0", burst, allocs)
	}
	if st := shaped.Stats(); st.OverflowDrops == 0 || st.Delivered == 0 {
		t.Fatalf("stats %+v: the bursts did not both evict and deliver", st)
	}
}

// TestLinkBufferHeldByReader: what an Emulator reader has read is its own.
// The link's buffer went back to the free list when ReadFrom copied it out,
// and ten queues' worth of later traffic through the same buffers does not
// reach the reader's bytes.
func TestLinkBufferHeldByReader(t *testing.T) {
	const queueBytes, size = 8000, 1000
	e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{QueueBytes: queueBytes}})
	defer e.Close()
	first := bytes.Repeat([]byte{0xA5}, size)
	if _, err := e.A().WriteTo(first, nil); err != nil {
		t.Fatal(err)
	}
	held := readOne(t, e.B(), time.Second)
	for i := 0; i < 10*queueBytes/size; i++ {
		if _, err := e.A().WriteTo(bytes.Repeat([]byte{byte(i)}, size), nil); err != nil {
			t.Fatal(err)
		}
		if got := readOne(t, e.B(), time.Second); got[0] != byte(i) || got[size-1] != byte(i) {
			t.Fatalf("datagram %d arrived as %x…%x", i, got[0], got[size-1])
		}
	}
	if !bytes.Equal(held, first) {
		t.Fatal("later traffic overwrote a datagram the reader holds")
	}
	e.ab.mu.Lock()
	free := e.ab.freeBytes
	e.ab.mu.Unlock()
	if free == 0 {
		t.Fatal("the link's buffers never came back from the reader")
	}
}

// TestLinkBufferFaultCopies: a duplicated datagram and its original are two
// buffers, also when the pair is corrupted or stripped on the way in, and
// neither is a buffer the link has meanwhile handed to anyone else.
func TestLinkBufferFaultCopies(t *testing.T) {
	plan := fault.Plan{Seed: 2, Events: []fault.Event{
		{Kind: fault.KindDuplicate, From: 0, To: time.Hour, Prob: 1},
		{Kind: fault.KindCorrupt, From: 0, To: time.Hour, Prob: 0.5},
		{Kind: fault.KindStarveFeedback, From: 0, To: time.Hour},
	}}
	var mu sync.Mutex
	var kept [][]byte
	l := newLink(LinkConfig{Faults: fault.NewInjector(plan), QueueBytes: 1 << 20}, func(b []byte, _ net.Addr) bool {
		mu.Lock()
		kept = append(kept, b)
		mu.Unlock()
		return true // like an Emulator inbox: the bytes stay out
	})
	const n = 200
	for i := 0; i < n; i++ {
		h := Header{Type: TypeData, Color: packet.Yellow, Seq: uint64(i), Feedback: packet.Feedback{RouterID: 1, Epoch: 1, Valid: true}}
		b, err := EncodeDatagram(h, make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		l.send(b, nil)
	}
	l.close()
	l.wait()
	if len(kept) != 2*n {
		t.Fatalf("%d deliveries, want every datagram twice (%d)", len(kept), 2*n)
	}
	seen := map[*byte]bool{}
	for i, b := range kept {
		if seen[&b[0]] {
			t.Fatalf("delivery %d shares its buffer with an earlier one still held", i)
		}
		seen[&b[0]] = true
	}
	for i := 0; i < len(kept); i += 2 {
		dup, orig := kept[i], kept[i+1]
		if !bytes.Equal(dup, orig) {
			t.Fatalf("pair %d: the duplicate differs from the original", i/2)
		}
		dup[HeaderSize] ^= 0xFF
		if bytes.Equal(dup, orig) {
			t.Fatalf("pair %d: writing to the duplicate changed the original", i/2)
		}
	}
	if fs := l.cfg.Faults.Stats(); fs.Corrupted == 0 || fs.Starved == 0 {
		t.Fatalf("faults %+v: the plan did not corrupt and strip", fs)
	}
}

// TestLinkIdleBytesBounded sends bursts of mixed 60–1460-byte traffic
// through a small congested queue. Each datagram sits in the buffer of its
// size class — 100 bytes in 128 — and when the bursts have drained the
// free lists, whatever the mix, hold no more than their bound of twice the
// queue, each buffer in its own class. A datagram past the last class,
// which each burst also carries, sits in a buffer made to its measure that
// the free lists never take.
func TestLinkIdleBytesBounded(t *testing.T) {
	const queueBytes = 4000
	var mu sync.Mutex
	caps := map[int]int{} // datagram length → capacity of the buffer it was delivered in
	l := newLink(LinkConfig{
		Bandwidth: 100 * units.Mbps, QueueBytes: queueBytes,
		Marker: NewGateway(GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: 100 * units.Mbps}),
	}, func(b []byte, _ net.Addr) bool {
		mu.Lock()
		caps[len(b)] = cap(b)
		mu.Unlock()
		return false
	})
	defer func() { l.close(); l.wait() }()
	colors := []packet.Color{packet.Green, packet.Yellow, packet.Red}
	rng := rand.New(rand.NewSource(4))
	sent := uint64(0)
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 50; i++ {
			payload := rng.Intn(MaxPayload + 1)
			switch i {
			case 0:
				payload = 100 - HeaderSize
			case 1:
				l.send(make([]byte, 3000), nil) // not a datagram: ranks as control
				sent++
				continue
			}
			b, err := EncodeDatagram(Header{Type: TypeData, Color: colors[rng.Intn(len(colors))]}, make([]byte, payload))
			if err != nil {
				t.Fatal(err)
			}
			l.send(b, nil)
			sent++
		}
		deadline := time.Now().Add(5 * time.Second)
		for st := l.Stats(); st.Delivered+st.OverflowDrops != sent; st = l.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("burst %d: %+v of %d sent never drained", burst, st, sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
		checkLinkBooks(t, burst, l)
	}
	if st := l.Stats(); st.OverflowDrops == 0 {
		t.Fatalf("stats %+v: the bursts never overflowed the queue", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for n, c := range caps {
		want := n // past the last class: made to measure
		if k := classOf(n); k < numClasses {
			want = 1 << (k + minClassBits)
		}
		if c != want || (n >= HeaderSize && 2*n <= c) {
			t.Fatalf("a %d-byte datagram sat in a %d-byte buffer, want %d", n, c, want)
		}
	}
	if caps[100] != 128 || caps[3000] != 3000 {
		t.Fatalf("100- and 3000-byte datagrams sat in %d- and %d-byte buffers, want 128 and 3000", caps[100], caps[3000])
	}
	if l.maxFreeBytes() != 2*queueBytes {
		t.Fatalf("free-list bound %d, want twice the queue", l.maxFreeBytes())
	}
}

// BenchmarkLinkHop is the router hop's own work per datagram at the
// closed-loop benchmark's geometry: 100-byte datagrams, 1 green to 4 yellow
// to 5 red, offered 10 % above a 30 Mb/s link with a 60 KB queue behind a
// Gateway, so the queue stays full and every arrival evicts or is dropped.
// One goroutine drives the link on a synthetic clock — mark, rank, admit,
// serialize, hand over, take the buffer back — without the live loop's
// sleeps and wake-ups.
func BenchmarkLinkHop(b *testing.B) {
	clk := time.Unix(1000, 0)
	now := func() time.Time { return clk }
	const capacity = 30 * units.Mbps
	l := newIdleLink(LinkConfig{
		Bandwidth: capacity, QueueBytes: 60_000, Now: now,
		Marker: NewGateway(GatewayConfig{RouterID: 1, Interval: 50 * time.Millisecond, Capacity: capacity, Now: now}),
	}, func([]byte, net.Addr) bool { return false })
	var datagrams [][]byte
	for i, c := range []packet.Color{packet.Green, packet.Yellow, packet.Yellow, packet.Yellow, packet.Yellow,
		packet.Red, packet.Red, packet.Red, packet.Red, packet.Red} {
		d, err := EncodeDatagram(Header{Type: TypeData, Color: c, Seq: uint64(i)}, make([]byte, 100-HeaderSize))
		if err != nil {
			b.Fatal(err)
		}
		datagrams = append(datagrams, d)
	}
	gap := capacity.TransmissionTime(100) * 10 / 11
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk = clk.Add(gap)
		l.send(datagrams[i%len(datagrams)], nil)
		l.step(clk)
	}
}
