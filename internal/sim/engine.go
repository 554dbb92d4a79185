// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (time.Duration since simulation
// start), an event queue ordered by (time, insertion sequence), and a seeded
// random number generator. All experiments in this repository are driven by
// a single Engine instance, which makes every run reproducible bit-for-bit
// for a given seed.
//
// The event queue is a calendar queue behind the eventQueue interface. It
// stays O(1) per schedule and fire by measuring its own bucket occupancy
// and pop scan length and halving or doubling its bucket width to keep
// both short (see calqueue.go). Because (time, insertion sequence) is a
// strict total order, any correct queue pops the exact same event sequence
// whatever its width; the tests hold the calendar queue to the original
// binary heap, which survives as a test-only reference.
package sim

import (
	"math/rand"
	"time"

	"repro/internal/obs"
)

// eventQueue is a priority queue over the strict total order (at, seq).
// Implementations must pop events in exactly that order; cancelled events
// stay queued (the run loop skips them) until compact removes them.
type eventQueue interface {
	push(ev *Event)
	// pop removes and returns the minimum event, or nil when empty.
	pop() *Event
	len() int
	// compact removes all cancelled events, marking each done and
	// releasing the pooled ones, and returns how many were removed.
	compact() int
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine. Engine is not safe for concurrent use: the simulation model is
// strictly single-threaded, which is what makes it deterministic.
type Engine struct {
	now time.Duration
	q   eventQueue
	seq uint64
	rng *rand.Rand

	// cancelled counts queued events whose Cancel has been called. When
	// they exceed half the queue the engine compacts, so cancel-heavy
	// models (retransmit timers) stay O(live events).
	cancelled int

	// free is the Event free list for pooled events. Only events created
	// by ScheduleFunc/AtFunc and by Timer arms are recycled: neither hands
	// out the *Event, so no caller can observe the reuse.
	free []*Event
	// recycled counts free-list reuses (for the obs gauge).
	recycled uint64

	// processed counts events executed so far (for reporting).
	processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed,
// running on the calendar queue.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewSource(seed)),
		q:   newCalQueue(),
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Instrument registers the engine's event counters in reg as pull gauges
// prefix+"events_processed", prefix+"events_pending", and
// prefix+"events_recycled" (free-list reuses). Values are read at snapshot
// time, so a registry exported mid-run shows live progress.
func (e *Engine) Instrument(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"events_processed", func() float64 { return float64(e.processed) })
	reg.GaugeFunc(prefix+"events_pending", func() float64 { return float64(e.Pending()) })
	reg.GaugeFunc(prefix+"events_recycled", func() float64 { return float64(e.recycled) })
}

// At runs fn at absolute simulation time t. If t is in the past it runs at
// the current time. The returned handle may be used to cancel the event.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fn: fn, eng: e}
	e.seq++
	e.q.push(ev)
	return ev
}

// ScheduleFunc runs fn after delay units of simulated time. A negative delay
// is treated as zero (run at the current time, after already-pending events
// at this time). Unlike At it returns no handle: the event cannot be
// cancelled, and in exchange its Event object comes from a free list and is
// recycled after it fires. This is the zero-allocation path for
// fire-and-forget work (packet transmissions, deliveries, start-ups);
// steady-state scheduling through it does not grow the heap.
func (e *Engine) ScheduleFunc(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.AtFunc(e.now+delay, fn)
}

// AtFunc runs fn at absolute simulation time t with the pooled
// fire-and-forget semantics of ScheduleFunc.
func (e *Engine) AtFunc(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: AtFunc called with nil callback")
	}
	e.pushPooled(t, fn)
}

// pushPooled queues fn at absolute time t (clamped to now) on an Event
// drawn from the free list, consuming one sequence number. Nothing outside
// the engine may keep the returned pointer past the event's pop: a pooled
// event is recycled when it fires, is skipped as cancelled, or is compacted
// away.
func (e *Engine) pushPooled(t time.Duration, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.recycled++
		*ev = Event{at: t, seq: e.seq, fn: fn, eng: e, pooled: true}
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn, eng: e, pooled: true}
	}
	e.seq++
	e.q.push(ev)
	return ev
}

// release returns a pooled event that has left the queue to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// compactThreshold is the minimum queue size before cancellation-triggered
// compaction kicks in; below it a rebuild costs more than it saves.
const compactThreshold = 32

// maybeCompact rebuilds the queue without cancelled events once they
// outnumber live ones. Rebuilding preserves determinism: the queue order is
// the total order (at, seq), so any rebuild yields the same pop sequence.
func (e *Engine) maybeCompact() {
	if e.q.len() < compactThreshold || 2*e.cancelled <= e.q.len() {
		return
	}
	e.cancelled -= e.q.compact()
}

// Run executes events until the queue is empty. Like RunUntil, it returns
// nil: the error result is the callers' seam for a run that can fail.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to the deadline. Events scheduled beyond the deadline remain
// queued so the simulation can be resumed.
func (e *Engine) RunUntil(deadline time.Duration) error {
	return e.run(deadline)
}

func (e *Engine) run(deadline time.Duration) error {
	for {
		next := e.q.pop()
		if next == nil {
			break
		}
		if deadline >= 0 && next.at > deadline {
			// Reinsertion keeps (at, seq) intact, so the resumed run pops
			// the same order as an uninterrupted one.
			e.q.push(next)
			e.now = deadline
			return nil
		}
		next.done = true
		if next.cancelled {
			e.cancelled--
			if next.pooled {
				e.release(next)
			}
			continue
		}
		e.now = next.at
		e.processed++
		fn := next.fn
		if next.pooled {
			// Safe to recycle before fn runs: pooled events hand out no
			// handle, so fn (or anything it schedules) may immediately
			// reuse the object without anyone observing the identity.
			e.release(next)
		}
		fn()
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return nil
}

// Pending returns the number of live (not cancelled) events currently
// queued.
func (e *Engine) Pending() int { return e.q.len() - e.cancelled }

// Event is a handle to a scheduled callback.
type Event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	eng       *Engine
	cancelled bool
	// pooled marks an event created by ScheduleFunc/AtFunc or a Timer arm:
	// no *Event handle exists, so the object returns to the engine free
	// list when it leaves the queue.
	pooled bool
	// done marks an event that has left the queue (fired, skipped, or
	// compacted away), so a late Cancel cannot skew the engine's
	// cancelled-event accounting.
	done bool
}

// Cancel prevents the event from firing. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	if ev.cancelled || ev.done {
		return
	}
	ev.cancelled = true
	ev.eng.cancelled++
	ev.eng.maybeCompact()
}

// before reports whether ev precedes other in the engine's total order.
func (ev *Event) before(other *Event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}
