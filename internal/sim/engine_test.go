package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Millisecond
		eng.Schedule(d, func() { got = append(got, eng.Now()) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("executed %d events, want 5", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events out of order: %v", got)
	}
}

func TestEngineSameTimeEventsRunInInsertionOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		eng.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran at position %d", v, i)
		}
	}
}

func TestEngineNegativeDelayRunsNow(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	eng.Schedule(time.Second, func() {
		eng.Schedule(-time.Minute, func() {
			ran = true
			if eng.Now() != time.Second {
				t.Errorf("negative delay ran at %v, want 1s", eng.Now())
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("negative-delay event never ran")
	}
}

func TestEngineAtInPastClampsToNow(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(time.Second, func() {
		eng.At(0, func() {
			if eng.Now() != time.Second {
				t.Errorf("past event ran at %v", eng.Now())
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	ev := eng.Schedule(time.Millisecond, func() { ran = true })
	ev.Cancel()
	if !ev.cancelled {
		t.Error("Cancelled() = false after Cancel")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestEngineCancelFromEarlierEvent(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	later := eng.Schedule(2*time.Millisecond, func() { ran = true })
	eng.Schedule(time.Millisecond, func() { later.Cancel() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("event cancelled mid-run still ran")
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine(1)
	var times []time.Duration
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		eng.Schedule(d, func() { times = append(times, eng.Now()) })
	}
	if err := eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("executed %d events by t=5s, want 5", len(times))
	}
	if eng.Now() != 5*time.Second {
		t.Errorf("Now() = %v after RunUntil(5s)", eng.Now())
	}
	// Resume.
	if err := eng.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(times) != 10 {
		t.Errorf("executed %d events total, want 10", len(times))
	}
	if eng.Now() != 20*time.Second {
		t.Errorf("Now() = %v after RunUntil(20s), clock should advance to deadline", eng.Now())
	}
}

func TestEngineRunUntilBoundaryInclusive(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	eng.Schedule(5*time.Second, func() { ran = true })
	if err := eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event exactly at the deadline did not run")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		eng := NewEngine(42)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, eng.Now())
			if len(out) < 50 {
				eng.Schedule(time.Duration(eng.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		eng.Schedule(0, step)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			eng.Schedule(time.Microsecond, recurse)
		}
	}
	eng.Schedule(0, recurse)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if eng.Now() != 99*time.Microsecond {
		t.Errorf("final time %v, want 99µs", eng.Now())
	}
}

func TestEngineAtNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(nil) did not panic")
		}
	}()
	NewEngine(1).At(0, nil)
}

// TestEngineOrderingProperty verifies with random schedules that execution
// order always equals the sort by (time, insertion sequence).
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		eng := NewEngine(7)
		type key struct {
			at  time.Duration
			seq int
		}
		var want []key
		var got []key
		for i, d := range delays {
			at := time.Duration(d) * time.Microsecond
			k := key{at, i}
			want = append(want, k)
			eng.At(at, func() { got = append(got, k) })
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if err := eng.Run(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEnginePendingCount(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 5; i++ {
		eng.Schedule(time.Second, func() {})
	}
	if eng.Pending() != 5 {
		t.Errorf("Pending() = %d, want 5", eng.Pending())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", eng.Pending())
	}
}

func TestEnginePendingExcludesCancelled(t *testing.T) {
	eng := NewEngine(1)
	var evs []*Event
	for i := 0; i < 8; i++ {
		evs = append(evs, eng.Schedule(time.Second, func() {}))
	}
	evs[1].Cancel()
	evs[4].Cancel()
	evs[4].Cancel() // double-cancel must not double-count
	if got := eng.Pending(); got != 6 {
		t.Errorf("Pending() = %d, want 6 (8 queued, 2 cancelled)", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", eng.Pending())
	}
}

func TestEngineCompactsCancelledEvents(t *testing.T) {
	eng := NewEngine(1)
	const n = 100
	evs := make([]*Event, n)
	for i := 0; i < n; i++ {
		evs[i] = eng.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	// Cancel well past half the heap: the engine must shed the dead
	// entries immediately rather than holding them to their fire times.
	for i := 0; i < 70; i++ {
		evs[i].Cancel()
	}
	if got := eng.Pending(); got != 30 {
		t.Errorf("Pending() = %d, want 30", got)
	}
	if got := eng.queueLen(); got >= 70 {
		t.Errorf("queue still holds %d entries after cancelling 70 of %d; compaction did not run", got, n)
	}
	// A cancel after compaction already discarded the event stays a no-op.
	evs[0].Cancel()
	if got := eng.Pending(); got != 30 {
		t.Errorf("Pending() = %d after re-cancel, want 30", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Processed(); got != 30 {
		t.Errorf("Processed() = %d, want 30 (cancelled events must not fire)", got)
	}
}

func TestEngineCompactionPreservesOrder(t *testing.T) {
	// Two engines run the same workload; one suffers a cancellation storm
	// that forces compaction. The surviving events must fire in the same
	// deterministic (time, seq) order on both.
	run := func(storm bool) []int {
		eng := NewEngine(7)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			eng.Schedule(time.Duration(50-i)*time.Millisecond, func() { order = append(order, i) })
		}
		var victims []*Event
		for i := 0; i < 100; i++ {
			victims = append(victims, eng.Schedule(time.Hour, func() {})) // fodder
		}
		if storm {
			for _, ev := range victims {
				ev.Cancel()
			}
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return order
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("order lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineCancelAfterFireIsNoOp(t *testing.T) {
	eng := NewEngine(1)
	ev := eng.Schedule(time.Millisecond, func() {})
	eng.Schedule(2*time.Millisecond, func() {})
	if err := eng.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ev.Cancel() // already fired: must not decrement Pending below reality
	if got := eng.Pending(); got != 1 {
		t.Errorf("Pending() = %d, want 1", got)
	}
}
