package timewheel

import (
	"slices"
	"testing"
	"time"
)

// owner stands in for what a timer wakes (a session, a swarm receiver).
type owner struct{ id int }

// advanceTo steps the wheel to at and returns everything fired.
func advanceTo(w *Wheel[owner], at time.Time) []*Timer[owner] {
	return w.Advance(at, nil)
}

func TestWheelFiresAtDeadline(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	fired := 0
	w.Schedule(t0.Add(3*time.Millisecond), func(time.Time) { fired++ })
	if got := advanceTo(w, t0.Add(2*time.Millisecond)); len(got) != 0 {
		t.Fatalf("fired %d timers before the deadline", len(got))
	}
	got := advanceTo(w, t0.Add(3*time.Millisecond))
	if len(got) != 1 {
		t.Fatalf("got %d timers at the deadline, want 1", len(got))
	}
	got[0].fn(t0.Add(3 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("callback ran %d times, want 1", fired)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel len %d after firing, want 0", w.Len())
	}
}

func TestWheelLapFiltering(t *testing.T) {
	// 8 slots × 1ms = 8ms horizon; a 20ms deadline wraps 2.5 laps and must
	// survive two cursor passes over its slot before firing.
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	w.Schedule(t0.Add(20*time.Millisecond), func(time.Time) {})
	for ms := 1; ms < 20; ms++ {
		if got := advanceTo(w, t0.Add(time.Duration(ms)*time.Millisecond)); len(got) != 0 {
			t.Fatalf("lap timer fired early at %dms", ms)
		}
	}
	if got := advanceTo(w, t0.Add(20*time.Millisecond)); len(got) != 1 {
		t.Fatalf("lap timer did not fire at its deadline, got %d", len(got))
	}
}

func TestWheelPastDeadlineFiresNextTick(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	w.Schedule(t0.Add(-time.Second), func(time.Time) {})
	if got := advanceTo(w, t0.Add(time.Millisecond)); len(got) != 1 {
		t.Fatalf("past deadline fired %d timers on the next tick, want 1", len(got))
	}
}

func TestWheelCancel(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	tm := w.Schedule(t0.Add(2*time.Millisecond), func(time.Time) {})
	if !w.Cancel(tm) {
		t.Fatal("Cancel of a live timer reported false")
	}
	if w.Cancel(tm) {
		t.Fatal("second Cancel reported true")
	}
	if w.Len() != 0 {
		t.Fatalf("wheel len %d after cancel, want 0", w.Len())
	}
	if got := advanceTo(w, t0.Add(10*time.Millisecond)); len(got) != 0 {
		t.Fatalf("cancelled timer fired (%d)", len(got))
	}
}

func TestWheelRescheduleReuse(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	count := 0
	tm := w.Schedule(t0.Add(time.Millisecond), func(time.Time) { count++ })
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(time.Millisecond)
		for _, f := range advanceTo(w, now) {
			f.fn(now)
			w.Reschedule(f, now.Add(time.Millisecond))
		}
	}
	if count != 5 {
		t.Fatalf("reused timer fired %d times, want 5", count)
	}
	if tm.At < now.Sub(t0) {
		t.Fatalf("rescheduled deadline %v not advanced past %v", tm.At, now)
	}
}

func TestWheelRescheduleLivePanics(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	tm := w.Schedule(t0.Add(time.Millisecond), func(time.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a live timer did not panic")
		}
	}()
	w.Reschedule(tm, t0.Add(2*time.Millisecond))
}

func TestWheelManyTimersOneAdvance(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 64, t0)
	const n = 1000
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(1+i%50) * time.Millisecond)
		w.Schedule(at, func(time.Time) {})
	}
	if w.Len() != n {
		t.Fatalf("wheel len %d, want %d", w.Len(), n)
	}
	got := advanceTo(w, t0.Add(50*time.Millisecond))
	if len(got) != n {
		t.Fatalf("one advance past every deadline fired %d, want %d", len(got), n)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel len %d after firing all, want 0", w.Len())
	}
}

// slotOrder renders each slot as the indices of the timers it holds, in
// slot order.
func slotOrder(w *Wheel[owner], index map[*Timer[owner]]int) [][]int {
	out := make([][]int, len(w.slots))
	for i, slot := range w.slots {
		for _, tm := range slot {
			out[i] = append(out[i], index[tm])
		}
	}
	return out
}

// TestWheelRescheduleBatchMatchesReschedule: a batch lands every timer in
// the slot, and at the position within it, that one Reschedule per timer
// in argument order would — for deadlines in the past, on the next tick,
// inside a tick, sharing a slot, and laps beyond the horizon. The batch
// reads Timer.At on the wheel's timeline and Reschedule takes the same
// deadline as a time.Time, so this also holds the two entry points to one
// placement and one firing Advance each. The time.Time side runs twice:
// on a wall-only origin (time.Unix) and on one that carries a monotonic
// clock reading, which must fire the same sets.
func TestWheelRescheduleBatchMatchesReschedule(t *testing.T) {
	const (
		n     = 240
		tick  = time.Millisecond
		slots = 16
	)
	// offset is timer i's deadline on the timeline: a spread of past,
	// next-tick and sub-tick offsets over one horizon and a half, plus
	// every fifth timer several laps out.
	offset := func(i int) time.Duration {
		d := time.Duration(i*37%61-3) * tick / 2
		switch {
		case i%5 == 0:
			d += time.Duration(i%4+2) * slots * tick
		case i%7 == 0:
			d += time.Duration(i%900+1) * time.Microsecond
		case i%11 == 0:
			d = -time.Duration(i) * time.Hour
		}
		return d
	}
	build := func(origin time.Time) (*Wheel[owner], []*Timer[owner], map[*Timer[owner]]int) {
		w := New[owner](tick, slots, origin)
		w.Advance(origin.Add(5*tick+tick/3), nil) // cursor off slot 0, mid-tick
		ts := make([]*Timer[owner], n)
		index := make(map[*Timer[owner]]int, n)
		for i := range ts {
			ts[i] = &Timer[owner]{At: offset(i)}
			index[ts[i]] = i
		}
		return w, ts, index
	}
	wall := time.Unix(1000, 0)
	mono := time.Now()
	if mono.String() == mono.Round(0).String() {
		t.Fatal("time.Now carries no monotonic reading here")
	}
	batch, ts, index := build(wall)
	batch.RescheduleBatch(ts)
	if got := batch.Len(); got != n {
		t.Fatalf("Len %d after a batch of %d, want %d", got, n, n)
	}
	want := slotOrder(batch, index)
	wheels := []*Wheel[owner]{batch}
	indexes := []map[*Timer[owner]]int{index}
	for _, origin := range []time.Time{wall, mono} {
		one, ts, index := build(origin)
		for _, tm := range ts {
			one.Reschedule(tm, origin.Add(tm.At))
		}
		got := slotOrder(one, index)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("origin %v: slot %d holds %v after %d × Reschedule, %v after RescheduleBatch", origin, i, got[i], n, want[i])
			}
		}
		wheels, indexes = append(wheels, one), append(indexes, index)
	}
	// Each fires the same timers on the same Advance, stepping a third of a
	// tick at a time, through every lap — the monotonic wheel advanced on
	// every other step by a wall-only instant, which Sub reads on the wall
	// clock.
	fireSet := func(k, step int, at time.Duration) []int {
		var origin time.Time
		switch {
		case k < 2:
			origin = wall
		case step%2 == 0:
			origin = mono
		default:
			origin = mono.Round(0) // the same wall reading, no monotonic one
		}
		var ids []int
		for _, tm := range wheels[k].Advance(origin.Add(at), nil) {
			ids = append(ids, indexes[k][tm])
		}
		slices.Sort(ids)
		return ids
	}
	total := 0
	for step, at := 0, 5*tick+tick/3; at <= 8*slots*tick; step, at = step+1, at+tick/3 {
		first := fireSet(0, step, at)
		for k := 1; k < len(wheels); k++ {
			if got := fireSet(k, step, at); !slices.Equal(got, first) {
				t.Fatalf("at %v wheel %d fired %v, the batch wheel %v", at, k, got, first)
			}
		}
		total += len(first)
	}
	// And the batch fires like any other timers: everything, once.
	if total != n || batch.Len() != 0 {
		t.Fatalf("fired %d of %d, %d left", total, n, batch.Len())
	}
	batch.RescheduleBatch(nil)
	if batch.Len() != 0 {
		t.Fatalf("an empty batch left Len %d", batch.Len())
	}
}

func TestWheelRescheduleBatchLivePanics(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	live := w.Schedule(t0.Add(time.Millisecond), func(time.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("RescheduleBatch of a live timer did not panic")
		}
	}()
	w.RescheduleBatch([]*Timer[owner]{{At: time.Millisecond}, live})
}

// TestWheelReset: Reset moves a timer whether or not it is live, the
// timer fires once at its last deadline only, and the entry a move leaves
// behind in the old slot is dropped rather than fired or kept.
func TestWheelReset(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	w := New[owner](time.Millisecond, 8, t0)
	o := &owner{id: 7}
	tm := &Timer[owner]{Owner: o}

	w.Reset(tm, ms(3)) // not live: arms
	w.Reset(tm, ms(6)) // live: later, another slot
	w.Reset(tm, ms(6)) // live: same slot again
	w.Reset(tm, ms(2)) // live: earlier
	if w.Len() != 1 {
		t.Fatalf("Len %d after four Resets of one timer, want 1", w.Len())
	}
	if got := advanceTo(w, ms(1)); len(got) != 0 {
		t.Fatalf("fired %d before the deadline", len(got))
	}
	got := advanceTo(w, ms(2))
	if len(got) != 1 || got[0] != tm || got[0].Owner != o {
		t.Fatalf("fired %v at the moved deadline, want the one timer", got)
	}
	// Re-armed far ahead, it must not fire from the stale entries the
	// earlier Resets left in the slots for 3 ms and 6 ms.
	w.Reschedule(tm, ms(40))
	if got := advanceTo(w, ms(39)); len(got) != 0 {
		t.Fatalf("a stale entry fired the timer early (%d)", len(got))
	}
	entries := 0
	for _, slot := range w.slots {
		entries += len(slot)
	}
	if entries != 1 {
		t.Fatalf("%d slot entries for one live timer after a lap: stale ones were kept", entries)
	}
	if got := advanceTo(w, ms(40)); len(got) != 1 || w.Len() != 0 {
		t.Fatalf("fired %d at 40 ms with %d left, want 1 and 0", len(got), w.Len())
	}
	// Moved within one slot the timer has two entries there and still
	// fires once.
	w.Reset(tm, ms(43))
	w.Reset(tm, ms(43))
	if got := advanceTo(w, ms(60)); len(got) != 1 || w.Len() != 0 {
		t.Fatalf("fired %d after two Resets into one slot with %d left, want 1 and 0", len(got), w.Len())
	}
}

// TestWheelCancelThenReschedule: the lazily dropped entry of a cancelled
// timer must not fire it, nor outlive a lap, once the timer is live again
// elsewhere.
func TestWheelCancelThenReschedule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := New[owner](time.Millisecond, 8, t0)
	tm := w.Schedule(t0.Add(2*time.Millisecond), func(time.Time) {})
	w.Cancel(tm)
	w.Reschedule(tm, t0.Add(5*time.Millisecond))
	var fired []*Timer[owner]
	for ms := 1; ms <= 16; ms++ {
		fired = w.Advance(t0.Add(time.Duration(ms)*time.Millisecond), fired)
		if want := ms >= 5; (len(fired) == 1) != want {
			t.Fatalf("at %d ms fired %d times in total", ms, len(fired))
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len %d after the one firing, want 0", w.Len())
	}
}
