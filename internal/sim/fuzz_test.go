package sim

import (
	"testing"
	"time"
)

// scriptFire is one entry of runEventScript's log: when an event fired and
// which one (timers are negative).
type scriptFire struct {
	at time.Duration
	id int
}

// runEventScript reads script three bytes at a time — an op and two
// arguments — and drives an engine through ScheduleFunc, At, Cancel,
// Timer.Reset, Timer.Stop, RunUntil and bursts of simultaneous or spread
// events, then drains it. Delays are a byte shifted by up to 35 bits (1 ns
// to about 2.4 h), so one script moves the calendar's width across its
// whole range. Every fourth scripted event schedules a child when it fires.
// It returns the fire log and Processed().
func runEventScript(t *testing.T, script []byte, useHeap bool) ([]scriptFire, uint64) {
	t.Helper()
	eng := newEngineOn(1, useHeap)
	var log []scriptFire
	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			log = append(log, scriptFire{eng.Now(), id})
			if id >= 0 && id%4 == 0 {
				eng.ScheduleFunc(time.Duration(id%97)<<(id%23), fire(-1000-id))
			}
		}
	}
	var timers [4]*Timer
	for i := range timers {
		timers[i] = eng.NewTimer(fire(-1 - i))
	}
	var handles []*Event
	const maxEvents = 50_000
	id := 0
	for len(script) >= 3 && id < maxEvents {
		op, a, b := script[0], script[1], script[2]
		script = script[3:]
		d := time.Duration(a) << (b % 36)
		switch op % 7 {
		case 0:
			eng.ScheduleFunc(d, fire(id))
			id++
		case 1:
			handles = append(handles, eng.At(eng.Now()+d, fire(id)))
			id++
		case 2:
			if len(handles) > 0 {
				handles[int(b)%len(handles)].Cancel()
			}
		case 3:
			timers[b%4].Reset(d)
		case 4:
			timers[b%4].Stop()
		case 5:
			if err := eng.RunUntil(eng.Now() + d); err != nil {
				t.Fatal(err)
			}
		case 6:
			// a+1 distinct offsets, so a = 0 puts the whole burst at one
			// instant.
			for i := 0; i < 1+8*int(a); i++ {
				eng.ScheduleFunc(time.Duration(i*7919%(int(a)+1))<<(b%36), fire(id))
				id++
			}
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log, eng.Processed()
}

// FuzzEventQueue requires the calendar queue to fire every script's events
// in the reference heap's order, with the same Processed().
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 10, 3, 1, 200, 20, 2, 0, 0, 5, 50, 10})
	f.Add([]byte{3, 9, 0, 3, 4, 0, 4, 0, 0, 5, 255, 35, 3, 1, 1})
	// Fine bursts then coarse ones: the width must narrow, then widen.
	f.Add([]byte{6, 255, 0, 6, 255, 1, 5, 255, 20, 6, 255, 24, 6, 255, 25, 6, 0, 30})
	f.Fuzz(func(t *testing.T, script []byte) {
		cal, calN := runEventScript(t, script, false)
		hp, hpN := runEventScript(t, script, true)
		sameOrder(t, "script", cal, hp)
		if calN != hpN {
			t.Fatalf("calendar processed %d events, heap %d", calN, hpN)
		}
	})
}
