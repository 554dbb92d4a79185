package sim

import "time"

// Timer is a reusable one-shot timer: the zero-allocation replacement for
// the pattern of keeping an *Event from At, cancelling it and
// scheduling a fresh one (a paced sender's next packet, a retransmit
// timeout pushed out by every ACK).
//
// An arm is exactly an At: it consumes one sequence number and fires
// in the engine's (time, sequence) order, so a model converted from
// Cancel+At to Stop/Reset runs the same events in the same order and
// reports the same Processed(). Re-arming an armed timer cancels the
// earlier arm the way Event.Cancel does: the dead entry stays queued,
// counts toward compaction, is skipped without being processed, and its
// Event goes back to the engine's free list when it is popped or compacted
// away. Arms draw from that free list, so a warm timer allocates nothing.
//
// Like the engine, a Timer belongs to one goroutine.
type Timer struct {
	eng  *Engine
	fn   func()
	fire func() // t.expire, bound once so arming does not allocate
	ev   *Event // the live arm; nil when idle
}

// NewTimer returns an idle timer that runs fn each time an arm expires.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil callback")
	}
	t := &Timer{eng: e, fn: fn}
	t.fire = t.expire
	return t
}

// Reset arms the timer to fire after delay (negative is treated as zero),
// first cancelling the current arm if there is one.
//
//pelsvet:noalloc
func (t *Timer) Reset(delay time.Duration) {
	t.Stop()
	t.ev = t.eng.pushPooled(t.eng.now+delay, t.fire)
}

// Stop cancels the current arm; stopping an idle timer is a no-op.
//
//pelsvet:noalloc
func (t *Timer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// Armed reports whether an arm is waiting to fire.
func (t *Timer) Armed() bool { return t.ev != nil }

// expire runs when an arm fires. The engine has already recycled the
// event, so the pointer is dropped before fn can re-arm.
func (t *Timer) expire() {
	t.ev = nil
	t.fn()
}
