package session

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
// The wheel never reads a clock: Advance is handed the current instant
// and fires everything due at or before it. Driving it from a real clock
// (Server), a synthetic clock (tests), or a benchmark loop is the
// caller's choice, which is what keeps this core deterministic and
// pelsvet-walltime-clean.
//
// All methods are safe for concurrent use. Fired timers are returned to
// the caller rather than invoked under the wheel lock, so callbacks may
// schedule freely.
type Wheel struct {
	tick time.Duration // immutable after NewWheel
	mask int           // immutable after NewWheel

	mu       sync.Mutex
	slots    [][]*Timer
	cursor   int
	cursorAt time.Time // boundary instant of the cursor slot
	count    int
}

// Timer is one scheduled deadline. A Timer belongs to exactly one Wheel
// and is reusable: once fired (or cancelled) it may be armed again with
// Wheel.Reschedule or RescheduleBatch. The zero Timer is a fired one, so
// a Session embeds its timer by value — one allocation, and the wheel
// entry points into the session it wakes.
type Timer struct {
	fn   func(now time.Time) // Schedule's callback; nil on a session's timer
	sess *Session            // the session an embedded timer wakes; nil otherwise
	at   time.Time           // written only while the timer is not live
	live bool                // armed and neither fired nor cancelled; guarded by the wheel's lock
}

// Call invokes the callback of a timer made by Schedule with the firing
// instant. The wheel never calls it; its caller does, outside the wheel
// lock.
func (t *Timer) Call(now time.Time) { t.fn(now) }

// When returns the armed deadline (meaningful while the timer is live).
func (t *Timer) When() time.Time { return t.at }

// NewWheel builds a wheel with the given tick granularity and slot count
// (rounded up to a power of two), anchored at now. The horizon —
// tick × slots — is the longest deadline that avoids lap rescans; longer
// deadlines are correct but touched once per lap.
func NewWheel(tick time.Duration, slots int, now time.Time) *Wheel {
	if tick <= 0 {
		panic(fmt.Sprintf("session: wheel tick %v must be positive", tick))
	}
	if slots <= 0 {
		slots = 256
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Wheel{
		tick:     tick,
		mask:     n - 1,
		slots:    make([][]*Timer, n),
		cursorAt: now,
	}
}

// Tick returns the wheel granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Len returns the number of live timers.
func (w *Wheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Schedule arms a new timer firing at instant at (past instants fire on
// the next tick). The callback is retained for the timer's lifetime and
// reused across Reschedule calls.
//
//pelsvet:noalloc
func (w *Wheel) Schedule(at time.Time, fn func(now time.Time)) *Timer {
	//pelsvet:allow noalloc one Timer per Schedule; the steady state re-arms it via Reschedule
	t := &Timer{fn: fn}
	w.Reschedule(t, at)
	return t
}

// Reschedule re-arms a fired or cancelled timer at a new instant. It
// panics if the timer is still live: a session has exactly one pending
// deadline, and silently double-arming would corrupt the wheel count.
//
//pelsvet:noalloc
func (w *Wheel) Reschedule(t *Timer, at time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armLocked(t, at)
}

// RescheduleBatch re-arms every timer in ts at the deadline its owner
// left in Timer.at, under one acquisition of the wheel lock: slot
// placement is exactly that of len(ts) Reschedule calls in argument
// order, and it panics on a live timer as Reschedule does.
//
//pelsvet:noalloc
func (w *Wheel) RescheduleBatch(ts []*Timer) {
	if len(ts) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		w.armLocked(t, t.at)
	}
}

// armLocked hashes a fired timer into its slot.
//
//pelsvet:noalloc
func (w *Wheel) armLocked(t *Timer, at time.Time) {
	if t.live {
		panic("session: Reschedule of a live timer")
	}
	t.live = true
	t.at = at
	// A deadline at or before the cursor boundary goes one slot ahead:
	// the wheel fires on tick boundaries, so "now" means "next tick".
	ticks := 1
	if d := at.Sub(w.cursorAt); d > w.tick {
		ticks = int((d + w.tick - 1) / w.tick)
	}
	slot := (w.cursor + ticks) & w.mask
	w.slots[slot] = append(w.slots[slot], t)
	w.count++
}

// Cancel disarms a timer. It reports whether the timer was live (false
// when it already fired or was already cancelled); the slot entry is
// dropped lazily when the cursor next walks it.
func (w *Wheel) Cancel(t *Timer) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
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
func (w *Wheel) Advance(now time.Time, fired []*Timer) []*Timer {
	w.mu.Lock()
	defer w.mu.Unlock()
	for now.Sub(w.cursorAt) >= w.tick {
		w.cursor = (w.cursor + 1) & w.mask
		w.cursorAt = w.cursorAt.Add(w.tick)
		slot := w.slots[w.cursor]
		if len(slot) == 0 {
			continue
		}
		keep := slot[:0]
		for _, t := range slot {
			switch {
			case !t.live: // cancelled; drop the entry
			case !t.at.After(now):
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
