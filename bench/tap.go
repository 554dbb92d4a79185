package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Header byte offsets of the v1 wire format the harness reads without a
// full decode (internal/wire keeps its own unexported). TestHeaderOffsets
// pins them against wire.AppendDatagram.
const (
	offType   = 5  // uint8
	offFlow   = 8  // uint32, big-endian
	offSeqLow = 27 // low byte of the uint64 sequence number at 20
)

// traceSampled reports whether datagram b is one of the 1-in-64 whose
// spans the traced run records; keyed on the sequence number so every
// wrapper a datagram passes picks the same ones.
func traceSampled(b []byte) bool { return len(b) > offSeqLow && b[offSeqLow]&63 == 0 }

// windowSlices is how many equal slices a measured window is cut into. A
// timing is taken per slice and the median slice is what is reported, so a
// burst of interference from the host costs the slices it hits and not the
// run. Twenty, because what a freeze of the VM does to the closed loop (a
// burst into the link's queue, then MKC climbing back) is over within half
// a second: a 10 s window then rides out nine of them.
const windowSlices = 20

// window gates what the receivers' checkers accumulate to the measured
// interval, and says which slice of it an instant falls in. The checkers
// run on the program's goroutines, so the harness never reaches into them
// mid-run; it opens and closes the window here and reads the totals after
// everything has stopped.
type window struct {
	from, to atomic.Int64 // unix ns; observations in [from, to) count
	slice    atomic.Int64 // ns per slice
}

func newWindow() *window {
	w := &window{}
	w.from.Store(math.MaxInt64)
	w.to.Store(math.MaxInt64)
	return w
}

// open starts the window at t; length is its planned duration, which sets
// the slices (a window left open longer keeps filling the last one).
func (w *window) open(t time.Time, length time.Duration) {
	w.slice.Store(int64(length)/windowSlices + 1)
	w.from.Store(t.UnixNano())
}

func (w *window) close(t time.Time) { w.to.Store(t.UnixNano()) }

// span returns how long slice i lasted: the planned length for all but the
// last, which runs until the window closed.
func (w *window) span(i int) time.Duration {
	per := w.slice.Load()
	if i < windowSlices-1 {
		return time.Duration(per)
	}
	return time.Duration(w.to.Load() - w.from.Load() - per*(windowSlices-1))
}

// sliceOf returns the slice instant ns falls in, or -1 outside the window.
func (w *window) sliceOf(ns int64) int {
	from := w.from.Load()
	if ns < from || ns >= w.to.Load() {
		return -1
	}
	if i := int((ns - from) / w.slice.Load()); i < windowSlices {
		return i
	}
	return windowSlices - 1
}

// slicedHist is one histogram per window slice.
type slicedHist [windowSlices]hist

// quantile returns the median over the slices that have samples of each
// slice's q-quantile.
func (h *slicedHist) quantile(q float64) float64 {
	var per []float64
	for i := range h {
		if h[i].count() > 0 {
			per = append(per, h[i].quantile(q))
		}
	}
	return stats.Percentile(per, 50)
}

// slicedPercentile is slicedHist.quantile for exact samples: the median
// over the non-empty groups of each group's pct-th percentile.
func slicedPercentile(groups [][]float64, pct float64) float64 {
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, stats.Percentile(g, pct))
		}
	}
	return stats.Percentile(per, 50)
}

// tally is what the flow checkers counted over one stretch of the measured
// window (a slice of it, or one flow's share of all of it).
type tally struct {
	bytes                  uint64 // datagram bytes received
	greenRecv, greenLost   uint64 // lost: a gap in the green sequence numbers
	frames, baseIncomplete uint64 // frames finalized; those missing a base packet
	recvEnh, usefulEnh     uint64
}

func (t *tally) add(o *tally) {
	t.bytes += o.bytes
	t.greenRecv += o.greenRecv
	t.greenLost += o.greenLost
	t.frames += o.frames
	t.baseIncomplete += o.baseIncomplete
	t.recvEnh += o.recvEnh
	t.usefulEnh += o.usefulEnh
}

// utility is eq. (3): useful over received enhancement packets; 1 when no
// enhancement packet arrived (nothing was wasted).
func (t tally) utility() float64 {
	if t.recvEnh == 0 {
		return 1
	}
	return float64(t.usefulEnh) / float64(t.recvEnh)
}

// greenLoss is the share of green datagrams that never arrived.
func (t tally) greenLoss() float64 {
	if t.greenRecv+t.greenLost == 0 {
		return 0
	}
	return float64(t.greenLost) / float64(t.greenRecv+t.greenLost)
}

// flowCheck is the receiver-side verdict on one flow: per-colour sequence
// continuity (the same rule wire.Swarm applies) and the paper's utility,
// eq. (3) — of the enhancement packets received for a frame, only the
// consecutive prefix after a complete base layer is decodable. Frames are
// finalized when the first datagram of a later frame arrives, which is
// exact on the FIFO links the benchmark uses; a straggler of an already
// finalized frame counts as received and useless. What it counts goes into
// the tally the caller hands it; only regressions, which fail a run
// wherever they happen, are kept here.
type flowCheck struct {
	green, total int // frame geometry

	next [3]uint64 // next expected sequence number per wire band
	debt [3]uint64 // presumed losses a late arrival may repay

	frame int64 // frame being assembled; -1 before the first datagram
	got   [2]uint64

	regressions uint64
}

func newFlowCheck(spec fgs.FrameSpec) *flowCheck {
	return &flowCheck{green: spec.GreenPackets, total: spec.TotalPackets, frame: -1}
}

// observe folds one decoded data datagram of size bytes in. into is the
// tally of the window slice the arrival falls in, nil outside the window.
func (c *flowCheck) observe(h wire.Header, size int, into *tally) {
	counts := into != nil
	if counts {
		into.bytes += uint64(size)
		if h.Color == packet.Green {
			into.greenRecv++
		}
	}
	if band := int(h.Color - packet.Green); band >= 0 && band < len(c.next) {
		switch {
		case h.Seq >= c.next[band]:
			gap := h.Seq - c.next[band]
			c.debt[band] += gap
			c.next[band] = h.Seq + 1
			if counts && h.Color == packet.Green {
				into.greenLost += gap
			}
		case c.debt[band] > 0:
			c.debt[band]--
			if counts && h.Color == packet.Green && into.greenLost > 0 {
				into.greenLost--
			}
		default:
			c.regressions++
		}
	}
	f, idx := int64(h.Frame), int(h.Index)
	if idx >= c.total || idx >= 128 {
		return
	}
	switch {
	case f < c.frame:
		if counts && idx >= c.green {
			into.recvEnh++
		}
		return
	case f > c.frame:
		if c.frame >= 0 && counts {
			c.finalize(into)
		}
		c.frame = f
		c.got = [2]uint64{}
	}
	c.got[idx>>6] |= 1 << (idx & 63)
}

// finalize scores the assembled frame into t.
func (c *flowCheck) finalize(t *tally) {
	t.frames++
	has := func(i int) bool { return c.got[i>>6]&(1<<(i&63)) != 0 }
	recvBase := 0
	for i := 0; i < c.green; i++ {
		if has(i) {
			recvBase++
		}
	}
	t.recvEnh += uint64(bits.OnesCount64(c.got[0]) + bits.OnesCount64(c.got[1]) - recvBase)
	if recvBase < c.green {
		t.baseIncomplete++
		return
	}
	for i := c.green; i < c.total && has(i); i++ {
		t.usefulEnh++
	}
}

// quality is the receiver-side verdict on a whole window: everything
// tallied inside it, and the sequence regressions seen at any time.
type quality struct {
	tally
	regressions uint64
}

// sink is the egress workloads' receiver: installed as ServerConfig.Out,
// it counts every datagram per flow, stamps each flow's first arrival, and
// fully decodes the datagrams of one flow in every `every` — CRC, sequence
// continuity, utility, arrival times — so its cost stays a small, measured
// share of a run that moves millions of datagrams per second.
type sink struct {
	first uint32 // flow ID of slot 0
	every uint32 // flows whose index is a multiple of this are sampled
	win   *window
	slots []sinkSlot
	check []*sampledFlow // non-nil for sampled flows

	startup hist // hello written -> first datagram, ns, per flow

	crcFail atomic.Uint64
	foreign atomic.Uint64 // not a data datagram of a known flow
}

// sinkSlot is one flow's counters. A session is pumped by one worker at a
// time, so a slot is never contended; atomics keep the harness's window
// snapshots race-free.
type sinkSlot struct {
	count   atomic.Uint64
	helloAt atomic.Int64 // unix ns the hello was written
}

var _ wire.PacketWriter = (*sink)(nil)

// sampledFlow is what the sink keeps for a flow it decodes in full.
type sampledFlow struct {
	chk      *flowCheck
	tally    tally   // the flow's whole window
	arrivals []int64 // unix ns of every datagram inside the window
}

// newSink builds a sink for flows first..first+flows-1 that samples one
// flow in every `every` and expects at most perFlow datagrams from each
// inside the window.
func newSink(first uint32, flows, every, perFlow int, spec fgs.FrameSpec, win *window) *sink {
	s := &sink{first: first, every: uint32(every), win: win, slots: make([]sinkSlot, flows), check: make([]*sampledFlow, flows)}
	for i := 0; i < flows; i += every {
		s.check[i] = &sampledFlow{chk: newFlowCheck(spec), arrivals: make([]int64, 0, perFlow)}
	}
	return s
}

// WriteTo implements wire.PacketWriter.
func (s *sink) WriteTo(b []byte, _ net.Addr) (int, error) {
	s.observe(b)
	return len(b), nil
}

// observe accounts one datagram the server sent.
func (s *sink) observe(b []byte) {
	if len(b) < wire.HeaderSize || wire.Type(b[offType]) != wire.TypeData {
		s.foreign.Add(1)
		return
	}
	i := binary.BigEndian.Uint32(b[offFlow:]) - s.first
	if i >= uint32(len(s.slots)) {
		s.foreign.Add(1)
		return
	}
	sl := &s.slots[i]
	if sl.count.Add(1) == 1 {
		if at := sl.helloAt.Load(); at != 0 {
			s.startup.record(time.Now().UnixNano() - at)
		}
	}
	if i%s.every != 0 {
		return
	}
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		s.crcFail.Add(1)
		return
	}
	now := time.Now().UnixNano()
	in := s.win.sliceOf(now) >= 0
	f := s.check[i]
	var into *tally
	if in {
		into = &f.tally
		if len(f.arrivals) < cap(f.arrivals) {
			f.arrivals = append(f.arrivals, now)
		}
	}
	f.chk.observe(h, len(b), into)
}

// delivered sums the per-flow counters.
func (s *sink) delivered() uint64 {
	var n uint64
	for i := range s.slots {
		n += s.slots[i].count.Load()
	}
	return n
}

// streaming counts flows that received at least one datagram.
func (s *sink) streaming() int {
	n := 0
	for i := range s.slots {
		if s.slots[i].count.Load() > 0 {
			n++
		}
	}
	return n
}

// quality sums the sampled flows' verdicts; call after the server stopped.
func (s *sink) quality() quality {
	var q quality
	for _, f := range s.check {
		if f != nil {
			q.add(&f.tally)
			q.regressions += f.chk.regressions
		}
	}
	return q
}

// lateness returns, for every sampled datagram, how long after its slot in
// its flow's own constant-rate schedule it reached the sink, in ns, grouped
// by window slice; period is the nominal spacing. Call after the server
// stopped.
func (s *sink) lateness(period time.Duration) [][]float64 {
	groups := make([][]float64, windowSlices)
	for _, f := range s.check {
		if f == nil {
			continue
		}
		late := appendLateness(nil, f.arrivals, float64(period))
		for k := range late { // one per arrival, in order
			if i := s.win.sliceOf(f.arrivals[k]); i >= 0 {
				groups[i] = append(groups[i], late[k])
			}
		}
	}
	return groups
}

// latenessChunks is how many stretches a flow's window is cut into to find
// its schedule.
const latenessChunks = 8

// appendLateness scores one paced flow. A token bucket never sends early,
// so the on-time datagrams trace the lower envelope of arrival-minus-slot.
// The envelope is found per stretch of the window: its slope — the gap
// between the nominal and the actual period, a fraction of a percent but
// milliseconds over ten seconds — is the median of the slopes between
// neighbouring stretches' minima, and each stretch's own minimum is its
// baseline, so a stall long enough to overflow the bucket (which moves the
// schedule for good) costs lateness once and not for the rest of the run.
func appendLateness(out []float64, arrivals []int64, period float64) []float64 {
	n := len(arrivals)
	if n < 8*latenessChunks {
		return out
	}
	resid := make([]float64, n)
	for k, a := range arrivals {
		resid[k] = float64(a-arrivals[0]) - float64(k)*period
	}
	bounds := func(c int) (lo, hi int) { return c * n / latenessChunks, (c + 1) * n / latenessChunks }
	var mins [latenessChunks]int
	for c := range mins {
		lo, hi := bounds(c)
		mins[c] = lo
		for k := lo + 1; k < hi; k++ {
			if resid[k] < resid[mins[c]] {
				mins[c] = k
			}
		}
	}
	slopes := make([]float64, 0, latenessChunks-1)
	for c := 1; c < latenessChunks; c++ {
		a, b := mins[c-1], mins[c]
		slopes = append(slopes, (resid[b]-resid[a])/float64(b-a))
	}
	slope := stats.Percentile(slopes, 50)
	for c := range mins {
		lo, hi := bounds(c)
		base := resid[mins[c]] - slope*float64(mins[c])
		for k := lo; k < hi; k++ {
			late := resid[k] - slope*float64(k) - base
			if late < 0 {
				late = 0 // the slope moved this one just under the stretch's minimum
			}
			out = append(out, late)
		}
	}
	return out
}

// tap is the receiver-side observer of the Swarm workloads: SwarmConfig.
// Listen hands the swarm tapped endpoints, so every hello it writes and
// every datagram it reads passes through here first — timestamps, CRC,
// per-(flow, frame) prefix bitmaps — without the swarm or the server
// knowing.
type tap struct {
	first   uint32
	sockets int
	win     *window
	flows   []tapFlow

	// tallies[socket][slice]: each socket's read loop counts into its own,
	// so the loops share nothing.
	tallies [][windowSlices]tally

	green     slicedHist // green datagrams inside the window: header stamp -> read, ns
	startup   hist       // first hello written -> first data read, ns, per flow
	startupIn slicedHist // the same, for flows that started inside the window

	hellos  atomic.Uint64 // hellos written
	crcFail atomic.Uint64
	foreign atomic.Uint64 // unknown flow, or a flow read on another's socket
}

// tapFlow is one receiver's state. chk belongs to the read loop of the
// flow's socket; the atomics cross goroutines (hello loop vs read loop).
type tapFlow struct {
	helloAt  atomic.Int64
	started  atomic.Bool
	complete atomic.Bool // Close(complete) seen
	chk      *flowCheck
}

func newTap(first uint32, flows, sockets int, spec fgs.FrameSpec, win *window) *tap {
	t := &tap{first: first, sockets: sockets, win: win, flows: make([]tapFlow, flows), tallies: make([][windowSlices]tally, sockets)}
	for i := range t.flows {
		t.flows[i].chk = newFlowCheck(spec)
	}
	return t
}

// tapConn is one tapped swarm socket.
type tapConn struct {
	net.PacketConn
	tap *tap
	idx int
}

// wrap returns conn observed as the swarm's idx-th socket.
func (t *tap) wrap(conn net.PacketConn, idx int) *tapConn {
	return &tapConn{PacketConn: conn, tap: t, idx: idx}
}

// ReadFrom observes what the swarm is about to read.
func (c *tapConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.tap.onRead(p[:n], c.idx, time.Now().UnixNano())
	}
	return n, from, err
}

// WriteTo observes what the swarm sends: hellos start the startup clock.
func (c *tapConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.tap.onWrite(b, time.Now().UnixNano())
	return c.PacketConn.WriteTo(b, addr)
}

func (t *tap) onWrite(b []byte, now int64) {
	if len(b) < wire.HeaderSize {
		return
	}
	if wire.Type(b[offType]) == wire.TypeHello {
		t.hellos.Add(1)
		if i := binary.BigEndian.Uint32(b[offFlow:]) - t.first; i < uint32(len(t.flows)) {
			t.flows[i].helloAt.CompareAndSwap(0, now)
		}
	}
}

func (t *tap) onRead(b []byte, sock int, now int64) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		t.crcFail.Add(1)
		return
	}
	i := h.Flow - t.first
	if i >= uint32(len(t.flows)) || int(i)%t.sockets != sock {
		t.foreign.Add(1)
		return
	}
	fl := &t.flows[i]
	switch h.Type {
	case wire.TypeClose:
		if h.Reason() == wire.ReasonComplete {
			fl.complete.Store(true)
		}
	case wire.TypeData:
		if !fl.started.Load() {
			fl.started.Store(true)
			if at := fl.helloAt.Load(); at != 0 {
				t.startup.record(now - at)
				if i := t.win.sliceOf(now); i >= 0 {
					t.startupIn[i].record(now - at)
				}
			}
		}
		var into *tally
		if slice := t.win.sliceOf(now); slice >= 0 {
			into = &t.tallies[sock][slice]
			if h.Color == packet.Green {
				t.green[slice].record(now - h.Timestamp)
			}
		}
		fl.chk.observe(h, len(b), into)
	}
}

// sliced returns what the receivers counted in each window slice; call
// after the swarm stopped.
func (t *tap) sliced() [windowSlices]tally {
	var out [windowSlices]tally
	for s := range t.tallies {
		for i := range out {
			out[i].add(&t.tallies[s][i])
		}
	}
	return out
}

// quality sums every slice and every flow's regressions; call after the
// swarm stopped.
func (t *tap) quality() quality {
	var q quality
	for _, sl := range t.sliced() {
		q.add(&sl)
	}
	for i := range t.flows {
		q.regressions += t.flows[i].chk.regressions
	}
	return q
}

// counts reports how many receivers streamed and how many were told their
// session completed.
func (t *tap) counts() (started, complete int) {
	for i := range t.flows {
		if t.flows[i].started.Load() {
			started++
		}
		if t.flows[i].complete.Load() {
			complete++
		}
	}
	return started, complete
}
