package sim

import "time"

// calQueue is a calendar queue (R. Brown, CACM 1988): the event set is
// hashed by time into an array of buckets, each covering one `width`-long
// window per lap of the calendar. A cursor walks the buckets in window
// order, so schedule and fire are O(1) while the width fits the population.
//
// Pops follow the engine's strict total order (at, seq) whatever the
// width: each bucket is sorted descending (the minimum pops off the tail),
// the cursor visits windows in increasing time, and a window maps to one
// bucket, so the tail of the current window's bucket is the global
// minimum. The order is a pure function of the pushed (at, seq) pairs,
// which keeps same-seed runs bit-identical to the heap.
//
// The width steers itself by measured cost. Too wide, an insert searches
// and memmoves a crowded bucket; too narrow, a pop steps over empty ones.
// Every calSteerEvery inserts, if inserts found more than calMaxSeen
// entries in their bucket on average and pops stepped over at most
// calMaxScan/2 buckets, the width halves; if pops stepped over more than
// calMaxScan, it doubles. Halving about doubles the scan, so the gap
// between the two scan bounds keeps a halve from tripping a double. An
// insert beside an event at its own instant counts as finding none: no
// width separates simultaneous events, so a burst at one instant never
// asks for a halve. The bucket count follows the event count (doubling at
// 2·buckets, halving below buckets/4) and keeps the width. A full lap
// finding nothing (sparse far-future events) falls back to a direct scan
// for the global minimum and a cursor jump.
type calQueue struct {
	buckets [][]*Event    // each sorted descending by (at, seq); minimum at the tail
	width   time.Duration // window length, > 0
	count   int

	cur    int           // bucket cursor
	curTop time.Duration // exclusive end of cur's current window

	scratch []*Event // stages every event during a rebuild; kept so a warm queue allocates nothing
	probe   calProbe // running totals since the queue was made
	mark    calProbe // probe at the last steer
}

// calProbe counts inserts and the entries each found in its bucket, and
// pops and the buckets each stepped over.
type calProbe struct{ inserts, seen, pops, scanned uint64 }

const (
	calMinBuckets = 8    // smallest bucket array; a power of two
	calSteerEvery = 1024 // inserts between width decisions
	calMaxSeen    = 4    // mean entries an insert may find before the width halves
	calMaxScan    = 6    // mean buckets a pop may step over before it doubles
)

func newCalQueue() *calQueue {
	return &calQueue{
		buckets: make([][]*Event, calMinBuckets),
		width:   time.Millisecond,
		curTop:  time.Millisecond,
	}
}

// idx maps an event time to its bucket.
func (q *calQueue) idx(at time.Duration) int {
	return int((uint64(at) / uint64(q.width)) & uint64(len(q.buckets)-1))
}

// windowEnd returns the exclusive end of the window containing at.
func (q *calQueue) windowEnd(at time.Duration) time.Duration {
	return at - at%q.width + q.width
}

//pelsvet:noalloc
func (q *calQueue) push(ev *Event) {
	if q.count >= 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
	q.probe.seen += uint64(q.insert(ev))
	q.count++
	if ev.at < q.curTop-q.width {
		// Behind the cursor: possible after RunUntil parked the cursor at
		// a far-future window and the caller then scheduled near now.
		// Rewinding only ever moves the cursor earlier, so nothing is
		// skipped.
		q.cur = q.idx(ev.at)
		q.curTop = q.windowEnd(ev.at)
	}
	if q.probe.inserts++; q.probe.inserts%calSteerEvery == 0 {
		q.steer()
	}
}

// insert places ev into its bucket, keeping the bucket sorted descending
// by (at, seq), and returns how many entries the bucket already held, or 0
// when ev lands next to an event at its own instant.
//
//pelsvet:noalloc
func (q *calQueue) insert(ev *Event) int {
	i := q.idx(ev.at)
	b := q.buckets[i]
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(ev) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	seen := len(b)
	if lo < len(b) && b[lo].at == ev.at || lo > 0 && b[lo-1].at == ev.at {
		seen = 0
	}
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = ev
	q.buckets[i] = b
	return seen
}

//pelsvet:noalloc
func (q *calQueue) pop() *Event {
	if q.count == 0 {
		return nil
	}
	q.probe.pops++
	n := len(q.buckets)
	for i := 0; i < n; i++ {
		b := q.buckets[q.cur]
		if m := len(b); m > 0 {
			ev := b[m-1]
			if ev.at < q.curTop {
				b[m-1] = nil
				q.buckets[q.cur] = b[:m-1]
				q.count--
				q.probe.scanned += uint64(i)
				q.maybeShrink()
				return ev
			}
		}
		q.cur++
		if q.cur == n {
			q.cur = 0
		}
		q.curTop += q.width
	}
	// A full lap found nothing: the queue is sparse relative to its
	// spread. Find the global minimum directly (a second pass) and jump
	// the cursor to its window.
	q.probe.scanned += 2 * uint64(n)
	var min *Event
	minIdx := 0
	for i, b := range q.buckets {
		if len(b) == 0 {
			continue
		}
		if ev := b[len(b)-1]; min == nil || ev.before(min) {
			min, minIdx = ev, i
		}
	}
	b := q.buckets[minIdx]
	b[len(b)-1] = nil
	q.buckets[minIdx] = b[:len(b)-1]
	q.count--
	q.cur = minIdx
	q.curTop = q.windowEnd(min.at)
	q.maybeShrink()
	return min
}

func (q *calQueue) len() int { return q.count }

func (q *calQueue) maybeShrink() {
	if n := len(q.buckets); n > calMinBuckets && q.count < n/4 {
		q.resize(n / 2)
	}
}

// steer applies the type comment's width rule to the last window's probe.
//
//pelsvet:noalloc
func (q *calQueue) steer() {
	seen := q.probe.seen - q.mark.seen
	pops := q.probe.pops - q.mark.pops
	scanned := q.probe.scanned - q.mark.scanned
	q.mark = q.probe
	switch {
	case scanned > calMaxScan*pops && q.width < 1<<50: // far below overflow
		q.rebuild(len(q.buckets), 2*q.width)
	case seen > calMaxSeen*calSteerEvery && 2*scanned <= calMaxScan*pops && q.width > 1:
		q.rebuild(len(q.buckets), q.width/2)
	}
}

// resize rebuilds the calendar with n buckets at the current width. A
// shrunk array keeps its spare buckets, so growing back reuses them.
func (q *calQueue) resize(n int) {
	if n > cap(q.buckets) {
		grown := make([][]*Event, len(q.buckets), n)
		copy(grown, q.buckets)
		q.buckets = grown
	}
	q.rebuild(n, q.width)
}

// rebuild re-hashes every event into n buckets (n ≤ cap(q.buckets)) of
// window length width, in place, and points the cursor at the minimum.
//
//pelsvet:noalloc
func (q *calQueue) rebuild(n int, width time.Duration) {
	all := q.scratch[:0]
	for i, b := range q.buckets {
		all = append(all, b...)
		clear(b)
		q.buckets[i] = b[:0]
	}
	q.buckets, q.width = q.buckets[:n], width
	var min *Event
	for _, ev := range all {
		q.insert(ev)
		if min == nil || ev.before(min) {
			min = ev
		}
	}
	q.cur, q.curTop = 0, q.width
	if min != nil {
		q.cur, q.curTop = q.idx(min.at), q.windowEnd(min.at)
	}
	clear(all)
	q.scratch = all[:0]
}

func (q *calQueue) compact() int {
	removed := 0
	for i, b := range q.buckets {
		live := b[:0]
		for _, ev := range b {
			if ev.cancelled {
				ev.done = true
				removed++
				if ev.pooled {
					ev.eng.release(ev)
				}
				continue
			}
			live = append(live, ev)
		}
		clear(b[len(live):])
		q.buckets[i] = live
	}
	q.count -= removed
	return removed
}
