package sim

import (
	"sort"
	"time"
)

// calQueue is a calendar queue (R. Brown, CACM 1988): the event set is
// hashed by time into an array of buckets, each bucket covering one
// `width`-long window per lap of the calendar. A cursor walks the buckets
// in window order, so in the common case schedule and fire are O(1) —
// against the O(log n) binary heap this is what lets simulated-packet
// throughput scale to multi-million-event runs.
//
// Ordering invariant: pops follow the engine's strict total order
// (at, seq). Within a bucket events are kept sorted (descending, so the
// minimum pops off the tail in O(1)); across buckets the cursor visits
// windows in increasing time; a window maps to exactly one bucket, so the
// head of the current window's bucket is always the global minimum. The
// order is a pure function of the pushed (at, seq) pairs — no randomness,
// no map iteration — which keeps same-seed runs bit-identical to the heap
// implementation.
//
// Two escape hatches keep degenerate shapes from going quadratic:
//   - a full lap finding nothing (sparse far-future events) triggers a
//     direct scan for the global minimum and a cursor jump;
//   - resizes re-derive the bucket width from the median inter-event gap
//     of a deterministic sample, so one far-out timer cannot stretch the
//     width and pile every near event into a single bucket.
type calQueue struct {
	buckets [][]*Event    // each sorted descending by (at, seq); minimum at the tail
	width   time.Duration // window length, > 0
	count   int

	cur    int           // bucket cursor
	curTop time.Duration // exclusive end of cur's current window
}

// calMinBuckets is the smallest bucket array; below 2×this the queue never
// shrinks. Must be a power of two.
const calMinBuckets = 8

func newCalQueue() *calQueue {
	q := &calQueue{
		buckets: make([][]*Event, calMinBuckets),
		width:   time.Millisecond,
	}
	q.curTop = q.width
	return q
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
	q.insert(ev)
	q.count++
	if ev.at < q.curTop-q.width {
		// Behind the cursor: possible after RunUntil parked the cursor at
		// a far-future window and the caller then scheduled near now.
		// Rewinding only ever moves the cursor earlier, so nothing is
		// skipped.
		q.cur = q.idx(ev.at)
		q.curTop = q.windowEnd(ev.at)
	}
}

// insert places ev into its bucket, keeping the bucket sorted descending
// by (at, seq). Bucket occupancy is O(1) on average (resize holds
// count <= 2·buckets), so the memmove is short.
//
//pelsvet:noalloc
func (q *calQueue) insert(ev *Event) {
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
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = ev
	q.buckets[i] = b
}

//pelsvet:noalloc
func (q *calQueue) pop() *Event {
	if q.count == 0 {
		return nil
	}
	n := len(q.buckets)
	for i := 0; i < n; i++ {
		b := q.buckets[q.cur]
		if m := len(b); m > 0 {
			ev := b[m-1]
			if ev.at < q.curTop {
				b[m-1] = nil
				q.buckets[q.cur] = b[:m-1]
				q.count--
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
	// spread. Find the global minimum directly and jump the cursor to its
	// window.
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

// resize rebuilds the calendar with n2 buckets and a width re-derived from
// the current event population.
func (q *calQueue) resize(n2 int) {
	all := make([]*Event, 0, q.count)
	for _, b := range q.buckets {
		all = append(all, b...)
	}
	q.width = calWidth(all, q.width)
	q.buckets = make([][]*Event, n2)
	var min *Event
	for _, ev := range all {
		q.insert(ev)
		if min == nil || ev.before(min) {
			min = ev
		}
	}
	if min != nil {
		q.cur = q.idx(min.at)
		q.curTop = q.windowEnd(min.at)
	} else {
		q.cur = 0
		q.curTop = q.width
	}
}

// calWidth derives a bucket width from the inter-event gaps of a
// deterministic stride sample: the median sampled gap, rescaled from the
// sample density to the population density (a sample of k events spans the
// same spread with k-1 gaps that the full population covers with len-1).
// The median (not the mean) keeps a single far-future timer from
// stretching the width so far that every near event hashes into one
// bucket. Returns old when the population gives no signal (fewer than two
// distinct times).
func calWidth(evs []*Event, old time.Duration) time.Duration {
	const sampleMax = 64
	k := len(evs)
	if k > sampleMax {
		k = sampleMax
	}
	if k < 2 {
		return old
	}
	stride := len(evs) / k
	sample := make([]time.Duration, k)
	for i := 0; i < k; i++ {
		sample[i] = evs[i*stride].at
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	gaps := make([]time.Duration, 0, k-1)
	for i := 1; i < k; i++ {
		if g := sample[i] - sample[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return old
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	est := int64(gaps[len(gaps)/2]) * int64(k) / int64(len(evs))
	w := 4 * time.Duration(est)
	if w <= 0 {
		return old
	}
	return w
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
		for j := len(live); j < len(b); j++ {
			b[j] = nil
		}
		q.buckets[i] = live
	}
	q.count -= removed
	return removed
}
