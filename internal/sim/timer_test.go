package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestTimerFiresOncePerArm(t *testing.T) {
	eng := NewEngine(1)
	var fires []time.Duration
	tm := eng.NewTimer(func() { fires = append(fires, eng.Now()) })
	if tm.Armed() {
		t.Fatal("a new timer is armed")
	}
	tm.Reset(10 * time.Millisecond)
	if !tm.Armed() {
		t.Fatal("Armed() = false after Reset")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] != 10*time.Millisecond {
		t.Fatalf("fired at %v, want once at 10ms", fires)
	}
	if tm.Armed() {
		t.Error("Armed() = true after the arm fired")
	}
	tm.Reset(-time.Second) // negative delay: now
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 2 || fires[1] != 10*time.Millisecond {
		t.Fatalf("fired at %v, want a second fire at 10ms", fires)
	}
}

// TestTimerResetSupersedesAndStopCancels: only the latest arm fires, a
// stopped timer does not, and neither dead arm is counted as processed.
func TestTimerResetSupersedesAndStopCancels(t *testing.T) {
	eng := NewEngine(1)
	var fires []time.Duration
	tm := eng.NewTimer(func() { fires = append(fires, eng.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond)
	tm.Reset(20 * time.Millisecond)
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with one live arm, want 1", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 || fires[0] != 20*time.Millisecond {
		t.Fatalf("fired at %v, want once at 20ms", fires)
	}
	tm.Reset(time.Millisecond)
	tm.Stop()
	tm.Stop() // idle: no-op
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fires) != 1 {
		t.Fatalf("a stopped timer fired: %v", fires)
	}
	if got := eng.Processed(); got != 1 {
		t.Errorf("Processed() = %d, want 1: cancelled arms are skipped, not executed", got)
	}
}

// TestTimerConsumesOneSeqPerArm: an arm takes its place in insertion order
// among same-instant events exactly as a Schedule at that point would.
func TestTimerConsumesOneSeqPerArm(t *testing.T) {
	eng := NewEngine(1)
	var order []string
	tm := eng.NewTimer(func() { order = append(order, "timer") })
	eng.At(eng.Now()+time.Millisecond, func() { order = append(order, "a") })
	tm.Reset(time.Millisecond)
	eng.ScheduleFunc(time.Millisecond, func() { order = append(order, "b") })
	tm.Reset(time.Millisecond) // re-arm: moves behind b
	eng.At(eng.Now()+time.Millisecond, func() { order = append(order, "c") })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "timer", "c"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if eng.seq != 5 {
		t.Errorf("five arms and schedules consumed %d sequence numbers", eng.seq)
	}
}

// TestTimerSelfRearmDoesNotAllocate is the paced-sender pattern: the
// callback re-arms its own timer. Once the free list holds one event the
// cycle allocates nothing.
func TestTimerSelfRearmDoesNotAllocate(t *testing.T) {
	eng := NewEngine(1)
	var tm *Timer
	n := 0
	tm = eng.NewTimer(func() {
		n++
		if n%1000 != 0 {
			tm.Reset(time.Microsecond)
		}
	})
	tm.Reset(0)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Microsecond)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("self re-arming timer allocates %.1f per 1000 fires, want 0", allocs)
	}
}

// TestTimerCancelAndRearmDoesNotAllocate is the retransmit-timeout pattern:
// the timer is pushed out again and again before it can fire, leaving a
// cancelled arm queued each time. Compaction returns those to the free
// list, so once warm the pattern allocates nothing either.
func TestTimerCancelAndRearmDoesNotAllocate(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.NewTimer(func() {})
	for i := 0; i < 4*compactThreshold; i++ {
		tm.Reset(200 * time.Millisecond)
	}
	allocs := testing.AllocsPerRun(1000, func() { tm.Reset(200 * time.Millisecond) })
	if allocs != 0 {
		t.Errorf("cancel-and-re-arm allocates %.2f per Reset, want 0", allocs)
	}
	if eng.recycled == 0 {
		t.Error("cancelled arms never came back through the free list")
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("Pending() = %d, want the one live arm", got)
	}
}

// timerFire is one entry of a timer script's log.
type timerFire struct {
	at time.Duration
	id int
}

// runTimerScript drives a handful of restartable timeouts with a random mix
// of re-arms and stops, interleaved with plain events, either through Timer
// or through the Cancel+Schedule idiom Timer replaces. It returns the fire
// log and the engine's processed count.
func runTimerScript(t *testing.T, seed int64, useHeap, useTimer bool) ([]timerFire, uint64) {
	t.Helper()
	eng := newEngineOn(seed, useHeap)
	const n = 8
	var log []timerFire
	timers := make([]*Timer, n)
	handles := make([]*Event, n)
	fire := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		fire[i] = func() {
			handles[i] = nil
			log = append(log, timerFire{eng.Now(), i})
		}
		timers[i] = eng.NewTimer(fire[i])
	}
	reset := func(i int, d time.Duration) {
		if useTimer {
			timers[i].Reset(d)
			return
		}
		if handles[i] != nil {
			handles[i].Cancel()
		}
		handles[i] = eng.At(eng.Now()+d, fire[i])
	}
	stop := func(i int) {
		if useTimer {
			timers[i].Stop()
			return
		}
		if handles[i] != nil {
			handles[i].Cancel()
			handles[i] = nil
		}
	}
	rng := rand.New(rand.NewSource(seed + 99))
	steps := 0
	var step func()
	step = func() {
		log = append(log, timerFire{eng.Now(), -1})
		if steps++; steps >= 4000 {
			return
		}
		for k := 0; k < 3; k++ {
			i := rng.Intn(n)
			switch rng.Intn(8) {
			case 0:
				stop(i)
			case 1:
				reset(i, 0) // same instant: order rests on seq alone
			default:
				reset(i, time.Duration(rng.Intn(3000))*time.Microsecond)
			}
		}
		eng.ScheduleFunc(time.Duration(rng.Intn(500))*time.Microsecond, step)
	}
	eng.ScheduleFunc(0, step)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log, eng.Processed()
}

// TestTimerMatchesCancelAndSchedule extends the queue-equivalence contract
// to Timer: under either event queue, a model written with Reset/Stop
// fires the same callbacks at the same times in the same order, and
// processes the same number of events, as the same model written with
// Cancel+Schedule — which is why adopting Timer moved no fingerprint.
func TestTimerMatchesCancelAndSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		want, wantN := runTimerScript(t, seed, true, false)
		if len(want) < 4000 {
			t.Fatalf("seed %d: script logged only %d fires", seed, len(want))
		}
		for _, mode := range []struct {
			name              string
			useHeap, useTimer bool
		}{
			{"heap+timer", true, true},
			{"calendar+schedule", false, false},
			{"calendar+timer", false, true},
		} {
			got, gotN := runTimerScript(t, seed, mode.useHeap, mode.useTimer)
			if gotN != wantN {
				t.Fatalf("seed %d %s: Processed() = %d, heap+schedule %d", seed, mode.name, gotN, wantN)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d fires, heap+schedule %d", seed, mode.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: fire %d is %+v, heap+schedule %+v", seed, mode.name, i, got[i], want[i])
				}
			}
		}
	}
}
