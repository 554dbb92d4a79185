package wire

import (
	"math/bits"
	"math/rand"
	"net"
	"slices"
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
	// loss is an i.i.d. random loss probability in [0,1], applied on
	// entry; only tests set it. Given a fixed seed the loss pattern is a
	// deterministic function of the datagram arrival sequence.
	loss float64
	// seed seeds the loss process.
	seed int64
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
	//pelsvet:allow deadknob test-clock seam: tests replay arrivals and fault windows on a synthetic clock
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

// outgoing is a datagram on the wire or propagating: it reaches the far end
// at its delivery instant.
type outgoing struct {
	b  []byte
	to net.Addr
	at time.Time // delivery instant
}

// prioCount is how many queued datagrams have one priority.
type prioCount struct{ prio, n int }

// The link's buffers come in size classes, 64 B doubling to 2 KB: every
// datagram the codec emits, HeaderSize bytes and up, sits in less than twice
// its length, the largest, MaxDatagram, in the last class.
const (
	minClassBits = 6 // the smallest class holds 1<<6 = 64 B
	numClasses   = 6 // 64, 128, 256, 512, 1024 and 2048 B
)

// classOf returns the size class whose buffers hold n bytes; numClasses or
// more means none does, and such a buffer is made to measure and never kept.
func classOf(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// link shapes datagrams through loss → marking → bounded priority queue →
// serialization at Bandwidth → propagation Delay → deliver. One goroutine,
// run, does serialization and delivery: it keeps the datagrams in flight in
// a delay line of its own and sleeps until the next instant either falls
// due, the wire freeing or a delivery. Deadlines are absolute, anchored to
// arrival instants, so sleep overshoot never reduces throughput below the
// configured rate, and delivery order always matches queue order.
//
// A datagram's bytes have one owner at every hop. send copies the caller's
// bytes into a buffer of its size class, taken from the link's free lists,
// so the caller may reuse its own at once; the buffer then belongs to the
// queue, to the delay line, and last to deliver for the length of that call.
// A datagram dropped on the way (marker, fault, eviction) gives its buffer
// back where it is dropped; a delivered one goes back under the loop's next
// queue lock, unless deliver reports that it kept the bytes, in which case
// whoever it passed them to calls release once it has copied them out.
type link struct {
	cfg     LinkConfig
	deliver func(b []byte, to net.Addr) (kept bool)

	mu    sync.Mutex
	queue fifo[queued]
	bytes int
	// prios counts the queued datagrams of each priority present, in
	// priority order, so the least important rank queued is the last entry.
	// It has one entry per rank the Marker uses (Gateway: control, layers).
	prios     []prioCount
	free      [numClasses][][]byte // idle buffers, by size class
	freeBytes int                  // what the free lists hold, in bytes
	rng       *rand.Rand
	stats     LinkStats // Delivered is kept in delivered
	closed    bool
	idle      bool      // the loop waits for an arrival: the wire is free and nothing queued
	start     time.Time // link creation; anchors the fault schedule

	wake chan struct{} // capacity 1: an arrival or close for an idle loop

	// delivered is counted by the loop alone, outside mu: the writers
	// contend for that lock.
	delivered atomic.Uint64

	// The loop's own state, touched by no other goroutine.
	busyUntil time.Time      // the last datagram put on the wire is through then
	out       fifo[outgoing] // the delay line, in delivery order
	spent     [][]byte       // delivered buffers, for the free lists under the next take
	timer     *time.Timer    // an idle loop's wait for the next delivery

	wg sync.WaitGroup
}

// newLink builds a link and starts its goroutine.
func newLink(cfg LinkConfig, deliver func(b []byte, to net.Addr) (kept bool)) *link {
	l := newIdleLink(cfg, deliver)
	l.wg.Add(1)
	go l.run()
	return l
}

// newIdleLink builds a link that nothing drains: the reference-model test
// steps take, transmit and handOver, or step, by hand.
func newIdleLink(cfg LinkConfig, deliver func(b []byte, to net.Addr) (kept bool)) *link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &link{
		cfg:     cfg,
		deliver: deliver,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		start:   cfg.Now(),
		wake:    make(chan struct{}, 1),
	}
}

// maxFreeBytes bounds the free lists in bytes: twice the queue. A class
// buffer is less than twice the datagram it holds, so that is room for the
// buffers of a full queue of any mix the codec emits (100-byte datagrams,
// in 128-byte buffers, need 1.28 queues' worth). Whatever is in
// flight beyond that (a long Delay, an unread Emulator inbox) is allocated
// and left to the collector, as every datagram once was.
func (l *link) maxFreeBytes() int { return 2 * l.cfg.QueueBytes }

// bufLocked returns a buffer of length n from the free list of its size
// class, or a new one. Callers hold l.mu.
func (l *link) bufLocked(n int) []byte {
	c := classOf(n)
	if c >= numClasses {
		return make([]byte, n)
	}
	if k := len(l.free[c]); k > 0 {
		b := l.free[c][k-1]
		l.free[c][k-1] = nil
		l.free[c] = l.free[c][:k-1]
		l.freeBytes -= cap(b)
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minClassBits))
}

// releaseLocked gives a buffer obtained from bufLocked back. Callers hold
// l.mu and must not touch b afterwards.
func (l *link) releaseLocked(b []byte) {
	c := classOf(cap(b))
	if c < numClasses && l.freeBytes+cap(b) <= l.maxFreeBytes() {
		l.free[c] = append(l.free[c], b)
		l.freeBytes += cap(b)
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
	if l.cfg.loss > 0 && l.rng.Float64() < l.cfg.loss {
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
	// Make room from the least important end. If nothing queued ranks below
	// the arrival, the arrival is the one dropped, decided from the counts
	// alone. Otherwise the newest datagram of the lowest rank present goes,
	// the closest live analogue of tail drop within a priority class, and
	// the scan from the tail stops at it.
	for l.bytes+len(q.b) > l.cfg.QueueBytes && l.queue.len() > 0 {
		l.stats.OverflowDrops++
		worst := l.prios[len(l.prios)-1].prio
		if worst <= q.prio {
			l.releaseLocked(q.b)
			return
		}
		queue := l.queue.held()
		i := len(queue) - 1
		for queue[i].prio != worst {
			i--
		}
		evicted := l.queue.remove(i)
		l.bytes -= len(evicted.b)
		l.countLocked(worst, -1)
		l.releaseLocked(evicted.b)
	}
	// If the queue is empty and the datagram alone exceeds it, admit it
	// anyway so a tiny queue cannot starve the link forever.
	l.queue.push(q)
	l.bytes += len(q.b)
	l.countLocked(q.prio, 1)
	l.stats.Enqueued++
	if l.idle {
		l.idle = false
		l.signal()
	}
}

// countLocked adds d to the count of queued datagrams of priority prio. A
// rank enters prios when its first datagram does and leaves with its last.
// Callers hold l.mu.
//
//pelsvet:noalloc
func (l *link) countLocked(prio, d int) {
	i := 0
	for i < len(l.prios) && l.prios[i].prio < prio {
		i++
	}
	if i == len(l.prios) || l.prios[i].prio != prio {
		l.prios = slices.Insert(l.prios, i, prioCount{prio: prio}) // grows once per rank
	}
	if l.prios[i].n += d; l.prios[i].n == 0 {
		l.prios = slices.Delete(l.prios, i, i+1)
	}
}

// signal wakes the loop if it waits; a token already pending will do.
func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
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

// run is the link's goroutine. It does the work step finds due and sleeps
// until more is: deadlines are anchored to arrival instants, never to the
// loop's wake-up time, so sleep overshoot delays individual deliveries but
// can never reduce long-run throughput below the configured rate
// (oversleeping one datagram makes the next deadlines already due, and
// they go out back to back).
func (l *link) run() {
	defer l.wg.Done()
	var now time.Time
	for {
		next, idle, done := l.step(now)
		if done {
			return
		}
		now = l.sleep(now, next, idle)
	}
}

// step does the work due by now, an instant the clock is known to have
// reached: it hands over every datagram of the delay line whose instant
// has come and, whenever the wire is free by now, puts the head of the queue
// on it. It reports when more work falls due: at next, if that is not zero,
// and, with idle, when a datagram arrives — the wire is free and nothing is
// queued, so an arrival enters service at once. done reports a closed link
// with nothing left to carry.
func (l *link) step(now time.Time) (next time.Time, idle, done bool) {
	for {
		for l.out.len() > 0 && !l.out.held()[0].at.After(now) {
			l.handOver(l.out.pop())
		}
		if l.busyUntil.After(now) {
			next = l.busyUntil
			if l.out.len() > 0 && l.out.held()[0].at.Before(next) {
				next = l.out.held()[0].at
			}
			return next, false, false
		}
		q, ok, closed := l.take()
		if !ok {
			if l.out.len() == 0 {
				return time.Time{}, true, closed
			}
			return l.out.held()[0].at, true, false
		}
		l.transmit(q)
	}
}

// take gives the spent buffers back and takes the head of the queue, under
// one lock. With nothing queued it marks the link idle, so that the next
// arrival wakes the loop, and reports whether the link is closed.
func (l *link) take() (q queued, ok, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.spent {
		l.releaseLocked(b)
		l.spent[i] = nil
	}
	l.spent = l.spent[:0]
	if l.queue.len() == 0 {
		l.idle = true
		return queued{}, false, l.closed
	}
	q = l.queue.pop()
	l.bytes -= len(q.b)
	l.countLocked(q.prio, -1)
	return q, true, false
}

// transmit puts q on the free wire: it is through one transmission time
// after it started — when it arrived or when the wire freed, whichever is
// later — and reaches the far end Delay (plus any fault-injected extra)
// after that. Its place in the delay line is taken at once: nothing else is
// put on the wire before it is through, so a later insert could find no
// other place.
func (l *link) transmit(q queued) {
	end := q.at
	if l.cfg.Bandwidth > 0 {
		if l.busyUntil.Before(q.at) {
			l.busyUntil = q.at // the wire sat idle until this datagram arrived
		}
		l.busyUntil = l.busyUntil.Add(l.cfg.Bandwidth.TransmissionTime(len(q.b)))
		end = l.busyUntil
	}
	o := outgoing{b: q.b, to: q.to, at: end.Add(l.cfg.Delay + q.extra)}
	// Insert sorted by delivery instant: a fault-delayed datagram slots
	// behind later traffic, which is what makes the delay a reordering.
	// Without one the place is the tail, found from there in one step.
	out := l.out.held()
	i := len(out)
	for i > 0 && out[i-1].at.After(o.at) {
		i--
	}
	l.out.insert(i, o)
}

// handOver delivers o. Its buffer waits in spent for the next take, unless
// deliver kept it.
func (l *link) handOver(o outgoing) {
	// Count before the hand-off: whoever reads the datagram must
	// already find it in Stats.
	l.delivered.Add(1)
	if !l.deliver(o.b, o.to) {
		l.spent = append(l.spent, o.b)
	}
}

// sleep waits for the work step reported and returns an instant the clock
// has reached: until next while the wire is busy; with an idle wire until
// next (for ever, if it is zero) or an arrival, whichever comes first.
func (l *link) sleep(now, next time.Time, idle bool) time.Time {
	if !idle {
		return waitUntil(now, next)
	}
	if next.IsZero() {
		<-l.wake
		return now
	}
	now = time.Now()
	d := next.Sub(now)
	if d <= 0 {
		return now
	}
	if l.timer == nil {
		l.timer = time.NewTimer(d)
	} else {
		l.timer.Reset(d)
	}
	select {
	case <-l.wake:
		stopTimer(l.timer)
		return now
	case <-l.timer.C:
		return next
	}
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
// until the loop has delivered them and exited.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.signal()
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
