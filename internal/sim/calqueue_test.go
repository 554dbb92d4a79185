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
				eng.At(eng.Now()+time.Duration(rng.Intn(50))*time.Nanosecond, step)
			case 1:
				pendingHandles = append(pendingHandles,
					eng.At(eng.Now()+time.Duration(rng.Intn(1000))*time.Millisecond, func() {}))
			case 2:
				eng.At(eng.Now()+time.Hour+time.Duration(rng.Intn(100))*time.Second, func() {})
			default:
				eng.At(eng.Now()+time.Duration(rng.Intn(2000))*time.Microsecond, step)
			}
		}
		if len(pendingHandles) > 20 {
			for _, ev := range pendingHandles[:10] {
				ev.Cancel()
			}
			pendingHandles = pendingHandles[10:]
		}
	}
	eng.At(eng.Now(), step)
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
	eng.At(eng.Now()+10*time.Second, record)
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	// The cursor parked at the 10s event's window; scheduling near now
	// must rewind it so the earlier event still fires first.
	eng.At(eng.Now()+500*time.Millisecond, record) // at absolute 1.5s
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
// through the pooled API must not allocate — nor may the calendar's width
// steering, forced here by bursts that move the gap scale by 10⁴.
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

	// A burst runs 64 self-rescheduling chains through 4096 events, each
	// waiting 1–8.5 gaps in 61 steps: at a 1 µs gap the steering must
	// narrow the width, at 10 ms widen it again.
	q := eng.q.(*calQueue)
	var gap time.Duration
	left := 0
	var chain func()
	chain = func() {
		if left--; left > 0 {
			eng.ScheduleFunc(gap+gap*time.Duration(left%61)/8, chain)
		}
	}
	burst := func(g time.Duration) {
		gap, left = g, 4096
		for i := 0; i < 64; i++ {
			eng.ScheduleFunc(g+g*time.Duration(i)/8, chain)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var fine, coarse time.Duration
	cycle := func() {
		burst(time.Microsecond)
		fine = q.width
		burst(10 * time.Millisecond)
		coarse = q.width
	}
	cycle() // warm the bucket slices and the scratch slice at both scales
	allocs = testing.AllocsPerRun(20, cycle)
	if fine >= coarse {
		t.Fatalf("width %v after the 1 µs burst, %v after the 10 ms one: the steering did not move it", fine, coarse)
	}
	if allocs != 0 {
		t.Errorf("bursts that re-bucket the calendar allocate %.1f/op, want 0", allocs)
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
			eng.At(eng.Now()+time.Millisecond, func() { order = append(order, i) })
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

// barbellMix loads eng the way a bar-bell testbed does until it has
// processed events events: 40 link-like streams, each ending a
// transmission every 100–550 µs and delivering the packet one propagation
// delay (5–45 ms) later; every delivery pushes out its stream's 1 s
// retransmit timer (a Timer.Reset storm that keeps compaction busy); and
// three Tickers at feedback-like periods.
func barbellMix(t *testing.T, eng *Engine, events uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 40; s++ {
		tx := time.Duration(100+rng.Intn(400)) * time.Microsecond
		prop := time.Duration(5+rng.Intn(40)) * time.Millisecond
		rto := eng.NewTimer(func() {})
		deliver := func() { rto.Reset(time.Second) }
		var send func()
		send = func() {
			eng.ScheduleFunc(prop, deliver)
			eng.ScheduleFunc(tx+time.Duration(rng.Intn(50))*time.Microsecond, send)
		}
		eng.ScheduleFunc(time.Duration(rng.Intn(1000))*time.Microsecond, send)
	}
	for _, p := range []time.Duration{30 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		NewTicker(eng, p, func() {}).Start()
	}
	for eng.Processed() < events {
		if err := eng.RunUntil(eng.Now() + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCalendarStaysConstantTime holds the calendar to O(1) by its own
// probe: on a bar-bell-shaped mix an insert finds at most 4 entries in its
// bucket on average and a pop steps over at most 4 buckets. Degenerate
// shapes — 10⁴ events at one instant, again and again, beside a few
// far-future timers, or beside a spread population — crowd one bucket at
// any width; there the width must settle instead of flapping, and pops
// must still stay short.
func TestCalendarStaysConstantTime(t *testing.T) {
	t.Run("barbell", func(t *testing.T) {
		eng := NewEngine(1)
		barbellMix(t, eng, 1_000_000)
		p := eng.q.(*calQueue).probe
		seen, scan := float64(p.seen)/float64(p.inserts), float64(p.scanned)/float64(p.pops)
		t.Logf("%d inserts: %.2f entries each; %d pops: %.2f buckets each", p.inserts, seen, p.pops, scan)
		if seen > 4 {
			t.Errorf("an insert finds %.2f entries in its bucket on average, want ≤ 4", seen)
		}
		if scan > 4 {
			t.Errorf("a pop steps over %.2f buckets on average, want ≤ 4", scan)
		}
	})
	t.Run("simultaneous", func(t *testing.T) {
		eng := NewEngine(1)
		for i := 1; i <= 4; i++ {
			eng.At(time.Duration(i)*time.Hour, func() {})
		}
		runBursts(t, eng, 10_000, time.Millisecond, 30)
	})
	t.Run("simultaneous+spread", func(t *testing.T) {
		// Beside a hold population of 2 000 events, 5 ms apart on
		// average: halving to separate them must stop at the scan
		// bound, not flap against it.
		eng := NewEngine(1)
		rng := eng.Rand()
		var hold func()
		hold = func() { eng.ScheduleFunc(time.Duration(rng.ExpFloat64()*float64(5*time.Millisecond)), hold) }
		for i := 0; i < 2000; i++ {
			hold()
		}
		runBursts(t, eng, 200, 100*time.Microsecond, 5000)
	})
}

// runBursts schedules rounds bursts of burst events, each burst at one
// instant period after the last, on top of what eng already holds. It
// fails t if the calendar's width changes more than once in any 10⁵ pops
// after the first 10⁵ (which may walk the width from its start to any
// scale), or if a pop steps over more than 4 buckets on average.
func runBursts(t *testing.T, eng *Engine, burst int, period time.Duration, rounds int) {
	t.Helper()
	q := eng.q.(*calQueue)
	// Only a push changes the width, so looking after each one sees
	// every change.
	changes := []int{0}
	width, pops := q.width, q.probe.pops
	observe := func() {
		if q.width != width {
			changes[len(changes)-1]++
			width = q.width
		}
		if q.probe.pops-pops >= 100_000 {
			changes = append(changes, 0)
			pops = q.probe.pops
		}
	}
	round := 0
	var next func()
	next = func() {
		if round++; round > rounds {
			return
		}
		for i := 0; i < burst; i++ {
			eng.AtFunc(eng.Now()+period, observe)
			observe()
		}
		eng.ScheduleFunc(period, next)
		observe()
	}
	eng.ScheduleFunc(0, next)
	for round <= rounds {
		if err := eng.RunUntil(eng.Now() + period); err != nil {
			t.Fatal(err)
		}
	}
	p := q.probe
	scan := float64(p.scanned) / float64(p.pops)
	t.Logf("width changes per 10⁵ pops: %v; %d pops: %.2f buckets each; width %v", changes, p.pops, scan, q.width)
	for i, c := range changes[1:] {
		if c > 1 {
			t.Errorf("the width changed %d times in pops %d–%d×10⁵, want ≤ 1", c, i+1, i+2)
		}
	}
	if scan > 4 {
		t.Errorf("a pop steps over %.2f buckets on average, want ≤ 4", scan)
	}
}

// BenchmarkEngineHold is the classic hold model: with n events pending,
// each fired event schedules one successor an exponential offset later, so
// every event is one pop and one push at a steady queue size. It reports
// the calendar's ns per event and the entries an insert finds in its
// bucket. Not gated; it shows a queue regression without the end-to-end
// bench.
func BenchmarkEngineHold(b *testing.B) {
	for _, n := range []int{64, 512, 4096, 16384} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			eng := NewEngine(1)
			rng := eng.Rand()
			// A mean offset of n µs fires one event per µs of simulated time.
			mean := float64(n) * float64(time.Microsecond)
			var hold func()
			hold = func() { eng.ScheduleFunc(time.Duration(rng.ExpFloat64()*mean), hold) }
			for i := 0; i < n; i++ {
				hold()
			}
			// Warm up through 16 queue turnovers before timing.
			if err := eng.RunUntil(time.Duration(16*n) * time.Microsecond); err != nil {
				b.Fatal(err)
			}
			q := eng.q.(*calQueue)
			p0, ev0 := q.probe, eng.Processed()
			b.ResetTimer()
			if err := eng.RunUntil(eng.Now() + time.Duration(b.N)*time.Microsecond); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			events := eng.Processed() - ev0
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(q.probe.seen-p0.seen)/float64(q.probe.inserts-p0.inserts), "entries/insert")
			b.ReportMetric(0, "ns/op")
		})
	}
}
