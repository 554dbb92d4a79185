package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/wire"
)

var testSpec = fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 1}

func encode(t *testing.T, h wire.Header, payload int) []byte {
	t.Helper()
	b, err := wire.EncodeDatagram(h, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func data(flow uint32, color packet.Color, frame uint32, index uint16, seq uint64, stamp int64) wire.Header {
	return wire.Header{Type: wire.TypeData, Color: color, Flow: flow, Frame: frame, Index: index, Seq: seq, Timestamp: stamp}
}

// The harness reads three header fields by offset; this pins the offsets
// to the codec.
func TestHeaderOffsets(t *testing.T) {
	b := encode(t, data(0x01020304, packet.Green, 9, 3, 0x1122334455667740, 1), 40)
	if wire.Type(b[offType]) != wire.TypeData {
		t.Errorf("offType reads %d", b[offType])
	}
	if got := uint32(b[offFlow])<<24 | uint32(b[offFlow+1])<<16 | uint32(b[offFlow+2])<<8 | uint32(b[offFlow+3]); got != 0x01020304 {
		t.Errorf("offFlow reads %#x", got)
	}
	if b[offSeqLow] != 0x40 || !traceSampled(b) {
		t.Errorf("offSeqLow reads %#x, sampled=%v; want 0x40, true", b[offSeqLow], traceSampled(b))
	}
	b = encode(t, data(1, packet.Green, 9, 3, 0x41, 1), 40)
	if traceSampled(b) {
		t.Error("sequence 0x41 must not be trace-sampled")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for us := int64(1); us <= 10000; us++ {
		h.record(us * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000e3}, {0.9, 9000e3}, {0.99, 9900e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.035 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within a bucket (3.5%%)", c.q, got, c.want)
		}
	}
	if h.count() != 10000 {
		t.Errorf("count = %d", h.count())
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("an empty histogram must report 0")
	}
}

// A timing is taken per slice and the median slice reported: one slice
// ruined by interference must not move the result.
func TestWindowSlicesShieldAgainstABurst(t *testing.T) {
	w := newWindow()
	start := time.Unix(1_700_000_000, 0)
	if w.sliceOf(start.UnixNano()) != -1 {
		t.Fatal("an unopened window contains an instant")
	}
	const length = windowSlices * time.Second
	w.open(start, length)
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {999 * time.Millisecond, 0}, {1500 * time.Millisecond, 1}, {length - time.Millisecond, windowSlices - 1}, {length + 2*time.Second, windowSlices - 1}, {-time.Second, -1}} {
		if got := w.sliceOf(start.Add(c.at).UnixNano()); got != c.want {
			t.Errorf("sliceOf(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
	w.close(start.Add(length + time.Second))
	if first, last := w.span(0), w.span(windowSlices-1); first < time.Second || first > time.Second+time.Microsecond || last < 2*time.Second-time.Microsecond || last > 2*time.Second {
		t.Errorf("span: first slice %v, last %v; want 1 s, and 2 s for the one the late close stretched", first, last)
	}
	if w.sliceOf(start.Add(length+2*time.Second).UnixNano()) != -1 {
		t.Error("a closed window contains a later instant")
	}

	var h slicedHist
	groups := make([][]float64, windowSlices)
	for i := 0; i < windowSlices; i++ {
		v := int64(1000)
		if i == 3 {
			v = 50000 // the slice a noisy neighbour hit
		}
		for k := 0; k < 100; k++ {
			h[i].record(v)
			groups[i] = append(groups[i], float64(v))
		}
	}
	if got := h.quantile(0.9); got < 1000 || got > 1040 {
		t.Errorf("sliced p90 = %v, want ~1000: one bad slice moved it", got)
	}
	if got := slicedPercentile(groups, 90); got != 1000 {
		t.Errorf("slicedPercentile = %v, want 1000", got)
	}
	if got := slicedPercentile(make([][]float64, windowSlices), 90); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A synthetic schedule with a known utility: of the enhancement packets
// received, only the prefix after a complete base layer counts.
func TestFlowCheckUtilityAndRegression(t *testing.T) {
	c := newFlowCheck(testSpec)
	var q quality
	var seq [4]uint64
	send := func(frame uint32, index uint16) {
		color := packet.Yellow
		if int(index) < testSpec.GreenPackets {
			color = packet.Green
		}
		c.observe(data(1, color, frame, index, seq[color], 0), 100, &q.tally)
		seq[color]++
	}
	for i := uint16(0); i < 10; i++ { // frame 0: complete prefix, 9 of 9 useful
		send(0, i)
	}
	for _, i := range []uint16{0, 1, 2, 4, 5} { // frame 1: gap at 3, 2 of 4 useful
		send(1, i)
	}
	for _, i := range []uint16{1, 2, 3} { // frame 2: base layer missing, 0 of 3 useful
		send(2, i)
	}
	send(3, 0) // finalizes frame 2; frame 3 itself stays open
	if q.frames != 3 || q.baseIncomplete != 1 || q.recvEnh != 16 || q.usefulEnh != 11 {
		t.Fatalf("quality = %+v, want 3 frames, 1 base-incomplete, 16 received, 11 useful", q)
	}
	if got, want := q.utility(), 11.0/16.0; got != want {
		t.Fatalf("utility = %v, want %v", got, want)
	}
	if c.regressions != 0 {
		t.Fatalf("in-order schedule reported %d regressions", c.regressions)
	}
	if q.bytes != 1900 || q.greenRecv != 3 || q.greenLost != 0 || q.greenLoss() != 0 {
		t.Fatalf("tally = %+v, want 1900 bytes, 3 green received, none lost", q.tally)
	}
	// A green sequence number skipped is a green datagram lost.
	seq[packet.Green]++
	send(4, 0)
	if q.greenLost != 1 || q.greenLoss() != 0.2 {
		t.Fatalf("green lost = %d (loss %v), want 1 of 5", q.greenLost, q.greenLoss())
	}

	// A gap followed by the late arrival is reordering, not a regression...
	c.observe(data(1, packet.Yellow, 4, 2, seq[packet.Yellow]+1, 0), 100, &q.tally)
	c.observe(data(1, packet.Yellow, 4, 1, seq[packet.Yellow], 0), 100, &q.tally)
	if c.regressions != 0 {
		t.Fatalf("repaid loss counted as %d regressions", c.regressions)
	}
	// ...but a sequence number running backwards with no loss to repay is
	// another session's sequence space leaking in.
	c.observe(data(1, packet.Yellow, 4, 3, 0, 0), 100, &q.tally)
	if c.regressions != 1 {
		t.Fatalf("planted regression: regressions = %d, want 1", c.regressions)
	}
	// Outside the window nothing is scored.
	quiet := newFlowCheck(testSpec)
	quiet.observe(data(1, packet.Green, 0, 0, 0, 0), 100, nil)
	quiet.observe(data(1, packet.Green, 1, 0, 1, 0), 100, nil)
	if quiet.frame != 1 || quiet.next[0] != 2 {
		t.Fatalf("outside the window the sequence and frame state must still advance: %+v", quiet)
	}
}

func TestSinkCountsSamplesAndVerifies(t *testing.T) {
	win := newWindow()
	win.open(time.Now().Add(-time.Second), 10*time.Second)
	s := newSink(100, 128, 64, 1024, testSpec, win)
	helloAt := time.Now().Add(-5 * time.Millisecond).UnixNano()
	s.slots[0].helloAt.Store(helloAt)

	stamp := time.Now().Add(-2 * time.Millisecond).UnixNano()
	for i := uint16(0); i < 10; i++ {
		color := packet.Yellow
		if i == 0 {
			color = packet.Green
		}
		seq := uint64(i)
		if i > 0 {
			seq--
		}
		s.WriteTo(encode(t, data(100, color, 0, i, seq, stamp), 40), nil) // sampled flow
		s.WriteTo(encode(t, data(101, color, 0, i, seq, stamp), 40), nil) // unsampled flow
	}
	s.WriteTo(encode(t, data(100, packet.Green, 1, 0, 1, stamp), 40), nil) // finalizes frame 0
	if got := s.delivered(); got != 21 {
		t.Fatalf("delivered = %d, want 21", got)
	}
	if got := s.streaming(); got != 2 {
		t.Fatalf("streaming = %d, want 2", got)
	}
	if got := len(s.check[0].arrivals); got != 11 || s.check[1] != nil {
		t.Fatalf("arrivals of the sampled flow = %d, want 11 (and flow 101 unsampled)", got)
	}
	if n, p50 := s.startup.count(), s.startup.quantile(0.5)/1e6; n != 1 || p50 < 5 || p50 > 500 {
		t.Fatalf("startup: %d samples, p50 %v ms; want 1 sample of at least 5 ms", n, p50)
	}
	if q := s.quality(); q.frames != 1 || q.utility() != 1 || q.regressions != 0 {
		t.Fatalf("quality = %+v", q)
	}

	// A corrupted datagram of a sampled flow fails its CRC; unknown flows
	// and non-data datagrams are foreign.
	bad := encode(t, data(100, packet.Green, 2, 0, 2, stamp), 40)
	bad[len(bad)-1] ^= 0xff
	s.WriteTo(bad, nil)
	s.WriteTo(encode(t, data(999, packet.Green, 0, 0, 0, stamp), 40), nil)
	s.WriteTo(encode(t, wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: 100}, 0), nil)
	if s.crcFail.Load() != 1 || s.foreign.Load() != 2 {
		t.Fatalf("crcFail = %d, foreign = %d; want 1, 2", s.crcFail.Load(), s.foreign.Load())
	}
	// A planted regression on the sampled flow is caught.
	s.WriteTo(encode(t, data(100, packet.Yellow, 2, 1, 0, stamp), 40), nil)
	if q := s.quality(); q.regressions != 1 {
		t.Fatalf("regressions = %d, want 1", q.regressions)
	}
}

// A paced flow whose real period is 0.1 % longer than nominal, with every
// tenth datagram 2 ms late and every hundredth 5 ms late: the drift must
// not read as lateness, and the percentiles are known.
func TestLatenessOfASyntheticSchedule(t *testing.T) {
	const n = 5000
	period := 10 * time.Millisecond
	arrivals := make([]int64, n)
	for k := range arrivals {
		at := int64(k) * (int64(period) + int64(10*time.Microsecond))
		switch {
		case k%100 == 99:
			at += int64(5 * time.Millisecond)
		case k%10 == 9:
			at += int64(2 * time.Millisecond)
		}
		arrivals[k] = 1_700_000_000_000_000_000 + at
	}
	late := appendLateness(nil, arrivals, float64(period))
	if len(late) != n {
		t.Fatalf("%d lateness samples, want %d", len(late), n)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e3 } // within 1 us
	if p50 := stats.Percentile(late, 50); !near(p50, 0) {
		t.Errorf("p50 lateness = %v ns, want 0: the 0.1%% drift leaked in", p50)
	}
	if p95 := stats.Percentile(late, 95); !near(p95, 2e6) {
		t.Errorf("p95 lateness = %v ns, want 2 ms", p95)
	}
	if p995 := stats.Percentile(late, 99.5); !near(p995, 5e6) {
		t.Errorf("p99.5 lateness = %v ns, want 5 ms", p995)
	}
	if got := appendLateness(nil, arrivals[:10], float64(period)); got != nil {
		t.Errorf("a flow with 10 datagrams was scored: too few to find its schedule")
	}
}

func TestTapTimestampsHellosAndData(t *testing.T) {
	n := newMemNetwork(64, 200)
	server := n.listen()
	win := newWindow()
	tp := newTap(10, 4, 2, testSpec, win)
	sock0 := tp.wrap(n.listen(), 0)
	sock1 := tp.wrap(n.listen(), 1)
	buf := make([]byte, 200)

	// Flow 10 (index 0) lives on socket 0.
	hello := encode(t, wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: 10}, 0)
	if _, err := sock0.WriteTo(hello, server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	sock0.WriteTo(hello, server.LocalAddr()) // a retry must not restart the clock
	if tp.hellos.Load() != 2 {
		t.Fatalf("hellos = %d, want 2", tp.hellos.Load())
	}

	win.open(time.Now(), 10*time.Second)
	stamp := time.Now().Add(-4 * time.Millisecond).UnixNano()
	server.WriteTo(encode(t, data(10, packet.Green, 0, 0, 0, stamp), 40), sock0.LocalAddr())
	server.WriteTo(encode(t, data(10, packet.Yellow, 0, 1, 0, stamp), 40), sock0.LocalAddr())
	server.WriteTo(encode(t, data(10, packet.Green, 1, 0, 1, stamp), 40), sock0.LocalAddr())
	for i := 0; i < 3; i++ {
		if _, _, err := sock0.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	if started, _ := tp.counts(); started != 1 {
		t.Fatalf("started = %d, want 1", started)
	}
	if n, p50 := tp.startup.count(), tp.startup.quantile(0.5)/1e6; n != 1 || p50 < 3 || p50 > 500 {
		t.Fatalf("startup: %d samples, p50 %v ms; want 1 sample of at least 3 ms (timed from the first hello)", n, p50)
	}
	if n, p50 := tp.green[0].count(), tp.green.quantile(0.5)/1e6; n != 2 || p50 < 4 || p50 > 500 {
		t.Fatalf("green delay: %d samples, p50 %v ms; want 2 samples of at least 4 ms", n, p50)
	}
	if q := tp.quality(); q.frames != 1 || q.recvEnh != 1 || q.usefulEnh != 1 {
		t.Fatalf("quality = %+v", q)
	}
	if sl := tp.sliced(); sl[0].greenRecv != 2 || sl[0].bytes == 0 || sl[1] != (tally{}) {
		t.Fatalf("sliced = %+v, want everything in slice 0", sl)
	}

	// Close(complete) finishes the receiver.
	closeDg := encode(t, wire.ControlHeader(wire.TypeClose, 10, wire.ReasonComplete, 0, 0), 0)
	server.WriteTo(closeDg, sock0.LocalAddr())
	sock0.ReadFrom(buf)
	if _, complete := tp.counts(); complete != 1 {
		t.Fatalf("complete = %d, want 1", complete)
	}

	// Flow 10 turning up on socket 1 is a cross-socket delivery; a damaged
	// datagram is a CRC failure.
	server.WriteTo(encode(t, data(10, packet.Green, 2, 0, 2, stamp), 40), sock1.LocalAddr())
	bad := encode(t, data(11, packet.Green, 0, 0, 0, stamp), 40)
	bad[70] ^= 1
	server.WriteTo(bad, sock1.LocalAddr())
	sock1.ReadFrom(buf)
	sock1.ReadFrom(buf)
	if tp.foreign.Load() != 1 || tp.crcFail.Load() != 1 {
		t.Fatalf("foreign = %d, crcFail = %d; want 1, 1", tp.foreign.Load(), tp.crcFail.Load())
	}
}
