// Package timewheel is the repository's one hashed timing wheel. It sits
// below both internal/session (whose driver advances it every
// millisecond to pace sessions) and internal/wire (whose swarm advances
// its own every 25 ms to wake receivers), imports neither, and never
// reads a clock.
package timewheel

import (
	"fmt"
	"sync"
	"time"
)

// Wheel is a hashed timing wheel (Varghese & Lauck): deadlines hash into
// a power-of-two ring of slots, the cursor walks one slot per tick, and a
// deadline beyond the horizon simply stays in its slot across laps until
// its instant arrives. Scheduling and cancelling are O(1); advancing does
// work proportional to the timers that are actually due plus the lap walk.
//
// O is the type a timer wakes (Timer.Owner): a fired timer leads straight
// to its session or receiver, with no callback and no lookup.
//
// The wheel never reads a clock: Advance is handed the current instant
// and fires everything due at or before it. Inside, every instant is a
// time.Duration on one integer timeline counted from the wheel's origin
// (New's now, Origin): the time.Time entry points convert once, with one
// Sub, and the walk compares integers. An owner that keeps its own
// instants on that timeline (session.Session) arms through Timer.At and
// RescheduleAt and never converts at all. Driving it from a real clock
// (Server, Swarm), a synthetic clock (tests), or a benchmark loop is the
// caller's choice, which is what keeps this core deterministic and
// pelsvet-walltime-clean.
//
// All methods are safe for concurrent use. Fired timers are returned to
// the caller rather than invoked under the wheel lock, so callbacks may
// schedule freely.
type Wheel[O any] struct {
	tick   time.Duration // immutable after New
	mask   int           // immutable after New
	origin time.Time     // the timeline's zero; immutable after New

	mu       sync.Mutex
	slots    [][]*Timer[O]
	cursor   int
	cursorAt time.Duration // boundary instant of the cursor slot, on the timeline
	count    int
}

// Timer is one scheduled deadline. A Timer belongs to exactly one Wheel
// and is reusable: once fired (or cancelled) it may be armed again with
// Reschedule, RescheduleBatch or Reset. The zero Timer is a fired one, so
// an owner embeds its timer by value — one allocation, and the wheel
// entry points into the owner it wakes.
type Timer[O any] struct {
	// Owner is what an embedded timer wakes; nil on a Schedule timer. Set
	// once, before the timer is first armed.
	Owner *O
	// At is the armed deadline on the wheel's timeline (since Origin). Its
	// owner may write it only while the timer is not live (that is how
	// RescheduleBatch is told the deadline).
	At time.Duration

	fn   func(now time.Time) // Schedule's callback; nil on an embedded timer
	live bool                // armed and neither fired nor cancelled; guarded by the wheel's lock
	slot int32               // where the live arming hashed to; guarded by the wheel's lock
}

// New builds a wheel with the given tick granularity and slot count
// (rounded up to a power of two), anchored at now, which becomes the
// origin of its timeline. The horizon — tick × slots — is the longest
// deadline that avoids lap rescans; longer deadlines are correct but
// touched once per lap.
func New[O any](tick time.Duration, slots int, now time.Time) *Wheel[O] {
	if tick <= 0 {
		panic(fmt.Sprintf("timewheel: tick %v must be positive", tick))
	}
	if slots <= 0 {
		slots = 256
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Wheel[O]{
		tick:   tick,
		mask:   n - 1,
		origin: now,
		slots:  make([][]*Timer[O], n),
	}
}

// Origin returns the instant the wheel's timeline counts from: Timer.At
// and RescheduleAt take durations since it.
func (w *Wheel[O]) Origin() time.Time { return w.origin }

// Len returns the number of live timers.
func (w *Wheel[O]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Schedule arms a new timer firing at instant at (past instants fire on
// the next tick). The callback is retained for the timer's lifetime and
// reused across Reschedule calls.
//
//pelsvet:noalloc
func (w *Wheel[O]) Schedule(at time.Time, fn func(now time.Time)) *Timer[O] {
	//pelsvet:allow noalloc one Timer per Schedule; the steady state re-arms it via Reschedule
	t := &Timer[O]{fn: fn}
	w.Reschedule(t, at)
	return t
}

// Reschedule re-arms a fired or cancelled timer at a new instant. It
// panics if the timer is still live: an owner has exactly one pending
// deadline, and silently double-arming would corrupt the wheel count.
//
//pelsvet:noalloc
func (w *Wheel[O]) Reschedule(t *Timer[O], at time.Time) {
	w.RescheduleAt(t, at.Sub(w.origin))
}

// RescheduleAt is Reschedule for a deadline already on the wheel's
// timeline (a duration since Origin).
//
//pelsvet:noalloc
func (w *Wheel[O]) RescheduleAt(t *Timer[O], at time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armLocked(t, at)
}

// RescheduleBatch re-arms every timer in ts at the deadline its owner
// left in Timer.At (on the wheel's timeline), under one acquisition of the
// wheel lock: slot placement is exactly that of len(ts) Reschedule calls
// in argument order, and it panics on a live timer as Reschedule does.
//
//pelsvet:noalloc
func (w *Wheel[O]) RescheduleBatch(ts []*Timer[O]) {
	if len(ts) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		w.armLocked(t, t.At)
	}
}

// Reset moves a timer to a new instant whether or not it is live — the
// owner whose deadline changed under it (time.Timer.Reset's shape).
//
//pelsvet:noalloc
func (w *Wheel[O]) Reset(t *Timer[O], at time.Time) {
	d := at.Sub(w.origin)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cancelLocked(t)
	w.armLocked(t, d)
}

// armLocked hashes a fired timer into its slot.
//
//pelsvet:noalloc
func (w *Wheel[O]) armLocked(t *Timer[O], at time.Duration) {
	if t.live {
		panic("timewheel: Reschedule of a live timer")
	}
	t.live = true
	t.At = at
	// A deadline at or before the cursor boundary goes one slot ahead:
	// the wheel fires on tick boundaries, so "now" means "next tick".
	// (Compared before subtracting: a saturated past instant minus the
	// cursor would wrap.)
	ticks := 1
	if at > w.cursorAt+w.tick {
		ticks = int((at-w.cursorAt-1)/w.tick) + 1
	}
	slot := (w.cursor + ticks) & w.mask
	t.slot = int32(slot)
	w.slots[slot] = append(w.slots[slot], t)
	w.count++
}

// Cancel disarms a timer. It reports whether the timer was live (false
// when it already fired or was already cancelled); the slot entry is
// dropped lazily when the cursor next walks it.
func (w *Wheel[O]) Cancel(t *Timer[O]) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cancelLocked(t)
}

// cancelLocked is Cancel under the caller's hold of the wheel lock.
//
//pelsvet:noalloc
func (w *Wheel[O]) cancelLocked(t *Timer[O]) bool {
	if !t.live {
		return false
	}
	t.live = false
	w.count--
	return true
}

// Advance walks the cursor up to now, appending every timer due at or
// before now to fired and returning the extended slice. Timers hashed
// into a walked slot whose deadline is laps away stay put. The caller
// acts on the returned timers outside the wheel lock.
//
//pelsvet:noalloc
func (w *Wheel[O]) Advance(now time.Time, fired []*Timer[O]) []*Timer[O] {
	at := now.Sub(w.origin)
	w.mu.Lock()
	defer w.mu.Unlock()
	for at >= w.cursorAt+w.tick {
		w.cursor = (w.cursor + 1) & w.mask
		w.cursorAt += w.tick
		slot := w.slots[w.cursor]
		if len(slot) == 0 {
			continue
		}
		keep := slot[:0]
		for _, t := range slot {
			switch {
			case !t.live || int(t.slot) != w.cursor:
				// Cancelled, or cancelled and re-armed elsewhere since:
				// this entry is the stale one; drop it. (One re-armed
				// into this same slot is met twice here: it fires at the
				// first entry and the second finds it no longer live.)
			case t.At <= at:
				t.live = false
				w.count--
				fired = append(fired, t)
			default: // a future lap
				keep = append(keep, t)
			}
		}
		// Zero the tail so dropped timers do not leak through the
		// retained backing array.
		for i := len(keep); i < len(slot); i++ {
			slot[i] = nil
		}
		w.slots[w.cursor] = keep
	}
	return fired
}
