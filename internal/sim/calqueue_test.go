package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// eventScript is a deterministic random workload: a mix of schedules,
// nested schedules, cancellations, and clustered timestamps designed to
// push the calendar queue through resizes, cursor rewinds, and the sparse
// direct-search fallback.
func runScript(t *testing.T, seed int64, useHeap bool) []time.Duration {
	t.Helper()
	eng := newEngineOn(seed, useHeap)
	var fired []time.Duration
	rng := rand.New(rand.NewSource(seed + 1000))
	var pendingHandles []*Event
	var step func()
	step = func() {
		fired = append(fired, eng.Now())
		if len(fired) >= 5000 {
			return
		}
		// Fan out a burst of events at mixed scales: sub-microsecond
		// clusters, millisecond spread, and the occasional far-future
		// timer (which a naive width estimate would choke on).
		for i := 0; i < 3; i++ {
			switch rng.Intn(10) {
			case 0:
				eng.Schedule(time.Duration(rng.Intn(50))*time.Nanosecond, step)
			case 1:
				pendingHandles = append(pendingHandles,
					eng.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {}))
			case 2:
				eng.Schedule(time.Hour+time.Duration(rng.Intn(100))*time.Second, func() {})
			default:
				eng.Schedule(time.Duration(rng.Intn(2000))*time.Microsecond, step)
			}
		}
		if len(pendingHandles) > 20 {
			for _, ev := range pendingHandles[:10] {
				ev.Cancel()
			}
			pendingHandles = pendingHandles[10:]
		}
	}
	eng.Schedule(0, step)
	eng.ScheduleFunc(time.Microsecond, func() {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return fired
}

// flowFire is one entry of runFlows' log.
type flowFire struct {
	at   time.Duration
	flow int
}

// runFlows is a workload the size of a testbed: flows self-rescheduling
// flows on the pooled path, each waiting a random 0–5 ms between its
// events, until events events have fired (the flows still pending then fire
// once more and stop). It returns who fired when, in firing order.
func runFlows(t *testing.T, seed int64, useHeap bool, flows, events int) []flowFire {
	t.Helper()
	eng := newEngineOn(seed, useHeap)
	rng := eng.Rand()
	fired := make([]flowFire, 0, events+flows)
	for f := 0; f < flows; f++ {
		f := f
		var tick func()
		tick = func() {
			fired = append(fired, flowFire{eng.Now(), f})
			if len(fired) < events {
				eng.ScheduleFunc(time.Duration(rng.Intn(5000))*time.Microsecond, tick)
			}
		}
		eng.ScheduleFunc(time.Duration(f)*time.Microsecond, tick)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return fired
}

// sameOrder fails t unless the calendar queue's log equals the heap's.
func sameOrder[T comparable](t *testing.T, name string, cal, hp []T) {
	t.Helper()
	if len(cal) != len(hp) {
		t.Fatalf("%s: calendar fired %d events, heap %d", name, len(cal), len(hp))
	}
	for i := range cal {
		if cal[i] != hp[i] {
			t.Fatalf("%s: event %d is %+v under calendar, %+v under heap", name, i, cal[i], hp[i])
		}
	}
}

// TestCalendarMatchesHeapOrder proves the calendar queue yields the exact
// event sequence of the reference heap — the determinism contract that lets
// it run every experiment without moving a same-seed fingerprint. Two
// workloads: an adversarial script (resizes, cursor rewinds, cancellations,
// the sparse fallback), and 16 384 concurrent flows through about 10⁵ events,
// the pending-set size of a full testbed run.
func TestCalendarMatchesHeapOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		sameOrder(t, fmt.Sprintf("script seed %d", seed), runScript(t, seed, false), runScript(t, seed, true))
	}
	const flows, events = 16384, 100_000
	cal := runFlows(t, 7, false, flows, events)
	if len(cal) < events {
		t.Fatalf("flows fired %d events, want ≥ %d", len(cal), events)
	}
	sameOrder(t, "16384 flows", cal, runFlows(t, 7, true, flows, events))
}

func TestCalendarRunUntilResumeAndRewind(t *testing.T) {
	eng := NewEngine(1)
	var fired []time.Duration
	record := func() { fired = append(fired, eng.Now()) }
	eng.Schedule(10*time.Second, record)
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	// The cursor parked at the 10s event's window; scheduling near now
	// must rewind it so the earlier event still fires first.
	eng.Schedule(500*time.Millisecond, record) // at absolute 1.5s
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{1500 * time.Millisecond, 10 * time.Second}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestCalendarManySimultaneousEvents(t *testing.T) {
	eng := NewEngine(1)
	const n = 1000
	var order []int
	for i := 0; i < n; i++ {
		i := i
		eng.At(time.Second, func() { order = append(order, i) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("fired %d events, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of insertion order at %d: got %d", i, v)
		}
	}
}

// TestScheduleFuncSteadyStateAllocs is the allocation regression gate for
// the engine hot path: once the free list is primed, a schedule→fire cycle
// through the pooled API must not allocate.
func TestScheduleFuncSteadyStateAllocs(t *testing.T) {
	eng := NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n%1000 != 0 {
			eng.ScheduleFunc(time.Microsecond, tick)
		}
	}
	// Prime the free list and the bucket arrays.
	eng.ScheduleFunc(0, tick)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		eng.ScheduleFunc(time.Microsecond, tick)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ScheduleFunc→Run cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestPooledEventsAreRecycled proves reuse actually happens (the free list
// is not dead code) and that recycled events fire with the fresh callback
// and time, never the stale ones.
func TestPooledEventsAreRecycled(t *testing.T) {
	eng := NewEngine(1)
	firstDone := false
	eng.ScheduleFunc(time.Millisecond, func() { firstDone = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !firstDone {
		t.Fatal("first pooled event never fired")
	}
	secondAt := time.Duration(-1)
	eng.ScheduleFunc(time.Millisecond, func() { secondAt = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.recycled == 0 {
		t.Error("free list never recycled an event")
	}
	if secondAt != 2*time.Millisecond {
		t.Errorf("recycled event fired at %v, want 2ms", secondAt)
	}
}

// TestPooledAndHandleEventsInterleave checks that pooled and handle-based
// events share one sequence space: ties at the same instant still fire in
// insertion order across both APIs.
func TestPooledAndHandleEventsInterleave(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		if i%2 == 0 {
			eng.ScheduleFunc(time.Millisecond, func() { order = append(order, i) })
		} else {
			eng.Schedule(time.Millisecond, func() { order = append(order, i) })
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-time events out of order at %d: got %d", i, v)
		}
	}
}

// TestCalendarSparseFallback drives the direct-search path: a handful of
// events spread across hours, far sparser than any bucket lap.
func TestCalendarSparseFallback(t *testing.T) {
	eng := NewEngine(1)
	var fired []time.Duration
	for _, at := range []time.Duration{3 * time.Hour, time.Minute, 2 * time.Hour, time.Millisecond} {
		at := at
		eng.At(at, func() { fired = append(fired, eng.Now()) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Millisecond, time.Minute, 2 * time.Hour, 3 * time.Hour}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("sparse events fired %v, want %v", fired, want)
		}
	}
}
