package session

import (
	"context"
	"testing"
	"time"
)

// TestAdmitWaveSettles scripts the admitted counter against instants: a
// wave settles once, collectQuiet after the counter last moved, and not
// again until it moves again — including a wave that was already over
// when the driver first looked.
func TestAdmitWaveSettles(t *testing.T) {
	t0 := time.Unix(5000, 0)
	q := collectQuiet
	steps := []struct {
		at       time.Duration
		admitted uint64
		want     bool
	}{
		{0, 0, false}, // nothing admitted: nothing to settle
		{5 * q, 0, false},
		{5*q + 1, 3, false},   // a wave starts
		{5*q + q/2, 7, false}, // and goes on
		{6 * q, 7, false},     // silent for half of collectQuiet
		{6*q + q/2 - 1, 7, false},
		{6*q + q/2, 7, true}, // silent for collectQuiet: settled, once
		{6*q + q/2 + 1, 7, false},
		{20 * q, 7, false},
		{20*q + 1, 8, false}, // one more session is a wave
		{21 * q, 8, false},
		{21*q + 1, 8, true},
		{40 * q, 8, false},
	}
	var w admitWave
	for i, st := range steps {
		if got := w.settled(st.admitted, t0.Add(st.at)); got != st.want {
			t.Fatalf("step %d (admitted %d at +%v): settled = %v, want %v", i, st.admitted, st.at, got, st.want)
		}
	}

	var late admitWave // the driver's first look finds sessions already admitted
	if late.settled(5, t0) || late.settled(5, t0.Add(q-1)) || !late.settled(5, t0.Add(q)) || late.settled(5, t0.Add(2*q)) {
		t.Fatal("a wave that ended before the first look must settle once, collectQuiet after that look")
	}
}

// TestTickCollectsAfterAdmission steps the core tick by tick after one
// session is admitted: the first tick that finds admissions silent for
// collectQuiet asks its driver for one collection, and no other tick does.
func TestTickCollectsAfterAdmission(t *testing.T) {
	s, clk, _ := handServer(t, discard{}, nil)
	hello(t, s, 1, clk.Now())
	pumpLane(s)
	admittedAt := clk.Now()
	var fired []*Timer
	var asked []time.Duration
	for ms := 0; ms < 1000; ms++ {
		now := clk.advance(s.cfg.wheelTick)
		wk := s.tick(now, 0, s.backlog(), fired[:0])
		fired = wk.fired
		if wk.collect {
			asked = append(asked, now.Sub(admittedAt))
		}
		if !s.handOff(context.Background(), fired) {
			t.Fatal("handOff gave up under a live context")
		}
		pumpQueued(s)
	}
	// The first tick sees the admission; the wave is quiet from there.
	if want := collectQuiet + s.cfg.wheelTick; len(asked) != 1 || asked[0] != want {
		t.Fatalf("collections asked at %v after the admission, want once at %v", asked, want)
	}
}
