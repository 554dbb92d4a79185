package wire

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/units"
)

// Marker is installed on a link to act as the router of the live stack:
// it sees every datagram entering the link, may rewrite it (feedback
// stamping), and ranks datagrams so congestion drops follow the PELS
// priority order. Gateway is the canonical implementation.
type Marker interface {
	// Mark processes a datagram about to enter the link queue. It may
	// mutate b in place; returning drop=true discards the datagram.
	Mark(b []byte) (drop bool)
	// Priority ranks a datagram for congestion drops: lower values are
	// more important and are evicted last.
	Priority(b []byte) int
}

// LinkConfig shapes one direction of an emulated link (or the outbound
// software bottleneck of cmd/pelsd).
type LinkConfig struct {
	// Bandwidth is the serialization rate; 0 means infinitely fast.
	Bandwidth units.BitRate
	// Delay is the one-way propagation delay added after serialization.
	Delay time.Duration
	// QueueBytes bounds the buffer ahead of the serializer; 0 selects
	// DefaultQueueBytes. When the buffer is full the lowest-priority
	// datagram (per Marker.Priority; the arrival, if no Marker) is
	// dropped — the live analogue of the strict-priority PELS queue.
	QueueBytes int
	// Loss is an i.i.d. random loss probability in [0,1], applied on
	// entry. Given a fixed Seed the loss pattern is a deterministic
	// function of the datagram arrival sequence.
	Loss float64
	// Seed seeds the loss process.
	Seed int64
	// Marker, if non-nil, stamps and classifies datagrams (the router).
	Marker Marker
	// Faults, if non-nil, applies a scheduled fault plan to every
	// datagram entering the link. Effects run after marking (a router
	// stamps before the wire damages), with time measured as the offset
	// from link creation on the link's clock. Do not share one injector
	// between links: its random stream would entangle their decisions.
	Faults *fault.Injector
	// Now overrides the clock used for arrival stamps and the fault
	// schedule; nil means time.Now. Tests inject a synthetic clock here.
	Now func() time.Time
}

// DefaultQueueBytes is the buffer used when LinkConfig.QueueBytes is 0.
const DefaultQueueBytes = 64 << 10

// LinkStats counts what a link did to the datagrams offered to it.
type LinkStats struct {
	// Enqueued datagrams entered the queue.
	Enqueued uint64
	// Delivered datagrams reached the far end.
	Delivered uint64
	// RandomDrops were lost to the i.i.d. loss process.
	RandomDrops uint64
	// OverflowDrops were evicted by the full queue (congestion loss).
	OverflowDrops uint64
	// MarkerDrops were discarded by the Marker.
	MarkerDrops uint64
	// FaultDrops were discarded by the fault injector (burst loss, link
	// flaps, feedback starvation). Other fault effects are counted by the
	// injector itself (fault.Injector.Stats).
	FaultDrops uint64
}

// queued is one datagram waiting for the serializer.
type queued struct {
	b     []byte
	to    net.Addr
	prio  int
	at    time.Time     // arrival instant, anchors the serialization deadline
	extra time.Duration // fault-injected extra propagation delay (reordering)
}

// link shapes datagrams through loss → marking → bounded priority queue →
// serialization at Bandwidth → propagation Delay → deliver. Serialization
// and delivery run on two goroutines with absolute-time deadlines, so
// sleep overshoot never reduces throughput below the configured rate and
// delivery order always matches queue order.
//
// A datagram's bytes have one owner at every hop. send copies the caller's
// bytes into a buffer taken from the link's free list, so the caller may
// reuse its own at once; the buffer then belongs to the queue, to out, and
// last to deliver for the length of that call. A datagram dropped on the way
// (marker, fault, eviction) gives its buffer back where it is dropped; a
// delivered one goes back when deliver returns, unless deliver reports that
// it kept the bytes, in which case whoever it passed them to calls release
// once it has copied them out.
type link struct {
	cfg     LinkConfig
	deliver func(b []byte, to net.Addr) (kept bool)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  fifo[queued]
	bytes  int
	free   [][]byte // idle datagram buffers, each of capacity ≥ MaxDatagram
	rng    *rand.Rand
	stats  LinkStats // Delivered is kept in delivered
	closed bool
	start  time.Time // link creation; anchors the fault schedule

	// delivered is counted by propagate alone, outside mu: the writers
	// contend for that lock and a delivery takes it once, to return the buffer.
	delivered atomic.Uint64

	outMu   sync.Mutex
	outCond *sync.Cond
	out     fifo[outgoing]
	outDone bool

	wg sync.WaitGroup
}

// outgoing is a serialized datagram waiting out its propagation delay.
type outgoing struct {
	b  []byte
	to net.Addr
	at time.Time // delivery instant
}

// newLink builds a link and starts its two goroutines.
func newLink(cfg LinkConfig, deliver func(b []byte, to net.Addr) (kept bool)) *link {
	l := newIdleLink(cfg, deliver)
	l.wg.Add(2)
	go l.serialize()
	go l.propagate()
	return l
}

// newIdleLink builds a link that nothing drains: the reference-model test
// steps dequeue, transmit, nextOut and handOver by hand.
func newIdleLink(cfg LinkConfig, deliver func(b []byte, to net.Addr) (kept bool)) *link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &link{
		cfg:     cfg,
		deliver: deliver,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		start:   cfg.Now(),
	}
	l.cond = sync.NewCond(&l.mu)
	l.outCond = sync.NewCond(&l.outMu)
	return l
}

// maxFree bounds the free list: a full queue of the smallest datagrams the
// codec emits. Whatever is in flight beyond that (a long Delay, an unread
// Emulator inbox) is allocated and left to the collector, as every datagram
// used to be.
func (l *link) maxFree() int { return l.cfg.QueueBytes/HeaderSize + 1 }

// bufLocked returns a buffer of length n, from the free list when it has
// one. Callers hold l.mu.
func (l *link) bufLocked(n int) []byte {
	if k := len(l.free); k > 0 && cap(l.free[k-1]) >= n {
		b := l.free[k-1]
		l.free = l.free[:k-1]
		return b[:n]
	}
	return make([]byte, n, max(n, MaxDatagram))
}

// releaseLocked gives a buffer obtained from bufLocked back. Callers hold
// l.mu and must not touch b afterwards.
func (l *link) releaseLocked(b []byte) {
	if len(l.free) < l.maxFree() {
		l.free = append(l.free, b)
	}
}

// release is releaseLocked for the far side of deliver.
func (l *link) release(b []byte) {
	l.mu.Lock()
	l.releaseLocked(b)
	l.mu.Unlock()
}

// send offers one datagram to the link. The bytes are copied, so callers
// may reuse b immediately. to is carried through to the deliver callback.
//
//pelsvet:noalloc
func (l *link) send(b []byte, to net.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss {
		l.stats.RandomDrops++
		return
	}
	c := l.bufLocked(len(b))
	copy(c, b)
	if l.cfg.Marker != nil {
		if drop := l.cfg.Marker.Mark(c); drop {
			l.stats.MarkerDrops++
			l.releaseLocked(c)
			return
		}
	}
	q := queued{b: c, to: to, at: l.cfg.Now()}
	if l.cfg.Marker != nil {
		q.prio = l.cfg.Marker.Priority(c)
	}
	if l.cfg.Faults != nil {
		// After marking: the router stamps before the wire damages, so
		// corruption cannot be healed by a later stamp and a stripped
		// label stays stripped.
		d := l.cfg.Faults.Filter(q.at.Sub(l.start), fault.Packet{Size: len(c), Class: classify(c)})
		if d.Drop {
			l.stats.FaultDrops++
			l.releaseLocked(c)
			return
		}
		if d.StripFeedback {
			_ = ClearFeedback(c) // non-PELS datagrams have nothing to strip
		}
		if d.Corrupt {
			fault.Scramble(c, d.Bits)
		}
		q.extra = d.ExtraDelay
		if d.Duplicate {
			dup := q
			dup.b = l.bufLocked(len(c))
			copy(dup.b, c)
			l.enqueueLocked(dup)
		}
	}
	l.enqueueLocked(q)
}

// enqueueLocked admits q to the bounded queue, evicting to make room.
// Callers hold l.mu.
//
//pelsvet:noalloc
func (l *link) enqueueLocked(q queued) {
	// Make room: evict from the least important end first. Scanning from
	// the tail prefers dropping the newest datagram among equals, the
	// closest live analogue of tail drop within a priority class. If the
	// arrival itself is least important, it is the one dropped.
	for l.bytes+len(q.b) > l.cfg.QueueBytes && l.queue.len() > 0 {
		worst, worstIdx := q.prio, -1
		queue := l.queue.held()
		for i := len(queue) - 1; i >= 0; i-- {
			if queue[i].prio > worst {
				worst, worstIdx = queue[i].prio, i
			}
		}
		l.stats.OverflowDrops++
		if worstIdx < 0 {
			l.releaseLocked(q.b)
			return // arrival is the least important datagram present
		}
		evicted := l.queue.remove(worstIdx)
		l.bytes -= len(evicted.b)
		l.releaseLocked(evicted.b)
	}
	// If the queue is empty and the datagram alone exceeds it, admit it
	// anyway so a tiny queue cannot starve the link forever.
	l.queue.push(q)
	l.bytes += len(q.b)
	l.stats.Enqueued++
	l.cond.Signal()
}

// classify maps a datagram onto the traffic classes the fault injector
// distinguishes. No CRC check here — a datagram corrupted by an earlier
// event is classified by its (possibly damaged) type byte, exactly as a
// confused middlebox would.
func classify(b []byte) fault.Class {
	t, ok := PeekType(b)
	switch {
	case !ok:
		return fault.ClassOther
	case t == TypeData:
		return fault.ClassData
	case t == TypeFeedback:
		return fault.ClassFeedback
	default:
		return fault.ClassOther
	}
}

// serialize drains the queue at Bandwidth. Transmission deadlines are
// anchored to datagram arrival times, never to the goroutine's wake-up
// time: the wire is idle only while no datagram is queued, so sleep
// overshoot delays individual deliveries but can never reduce long-run
// throughput below the configured rate (oversleeping one datagram makes
// the next deadlines already due, and they are sent back to back).
func (l *link) serialize() {
	defer l.wg.Done()
	var busyUntil, now time.Time
	for {
		q, ok := l.dequeue()
		if !ok {
			l.outMu.Lock()
			l.outDone = true
			l.outCond.Signal()
			l.outMu.Unlock()
			return
		}
		busyUntil, now = l.transmit(q, busyUntil, now)
	}
}

// dequeue takes the head of the queue, waiting for one; ok is false once
// the link is closed and drained.
func (l *link) dequeue() (q queued, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queue.len() == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.queue.len() == 0 {
		return queued{}, false
	}
	q = l.queue.pop()
	l.bytes -= len(q.b)
	return q, true
}

// transmit puts q on a wire that is busy until busyUntil, waits out its
// transmission and lines it up for delivery. It returns when the wire is
// free again and the instant the clock is known to have reached (waitUntil).
func (l *link) transmit(q queued, busyUntil, now time.Time) (time.Time, time.Time) {
	if l.cfg.Bandwidth > 0 {
		if busyUntil.Before(q.at) {
			busyUntil = q.at // wire sat idle until this datagram arrived
		}
		busyUntil = busyUntil.Add(l.cfg.Bandwidth.TransmissionTime(len(q.b)))
		now = waitUntil(now, busyUntil)
	} else {
		busyUntil = q.at
	}
	o := outgoing{b: q.b, to: q.to, at: busyUntil.Add(l.cfg.Delay + q.extra)}
	l.outMu.Lock()
	// Insert sorted by delivery instant: a fault-delayed datagram slots
	// behind later traffic, which is what makes the delay a reordering.
	// Without one the place is the tail, found from there in one step.
	out := l.out.held()
	i := len(out)
	for i > 0 && out[i-1].at.After(o.at) {
		i--
	}
	l.out.insert(i, o)
	l.outCond.Signal()
	l.outMu.Unlock()
	return busyUntil, now
}

// propagate delivers serialized datagrams at their absolute delivery
// instants. Without faults the delivery instants are monotone (busyUntil
// is); a fault-injected extra delay breaks monotonicity deliberately, and
// the sorted insert in transmit turns it into real reordering.
func (l *link) propagate() {
	defer l.wg.Done()
	var now time.Time
	for {
		o, ok := l.nextOut()
		if !ok {
			return
		}
		now = l.handOver(o, now)
	}
}

// nextOut takes the head of the delivery line, waiting for one; ok is false
// once serialize has finished and the line is empty.
func (l *link) nextOut() (o outgoing, ok bool) {
	l.outMu.Lock()
	defer l.outMu.Unlock()
	for l.out.len() == 0 && !l.outDone {
		l.outCond.Wait()
	}
	if l.out.len() == 0 {
		return outgoing{}, false
	}
	return l.out.pop(), true
}

// handOver delivers o at its instant and takes its buffer back.
func (l *link) handOver(o outgoing, now time.Time) time.Time {
	now = waitUntil(now, o.at)
	// Count before the hand-off: whoever reads the datagram must
	// already find it in Stats.
	l.delivered.Add(1)
	if !l.deliver(o.b, o.to) {
		l.release(o.b)
	}
	return now
}

// Stats returns a snapshot of the link counters.
func (l *link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Delivered = l.delivered.Load()
	return st
}

// close stops accepting datagrams; queued ones still drain. wait blocks
// until both pipeline goroutines exit.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *link) wait() { l.wg.Wait() }

// waitUntil blocks until the absolute instant t and returns an instant the
// clock has reached. now is such an instant from the caller's last wait: the
// clock is read only when t lies beyond it, so the datagrams a late wake-up
// finds already due go out on the one reading that found the first of them.
func waitUntil(now, t time.Time) time.Time {
	if !t.After(now) {
		return now
	}
	now = time.Now()
	if d := t.Sub(now); d > 0 {
		time.Sleep(d)
		return t // Sleep lasts at least d
	}
	return now
}
