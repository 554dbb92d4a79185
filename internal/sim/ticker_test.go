package sim

import (
	"testing"
	"time"
)

func TestTickerFiresAtFixedPeriod(t *testing.T) {
	eng := NewEngine(1)
	var fires []time.Duration
	tk := NewTicker(eng, 10*time.Millisecond, func() {
		fires = append(fires, eng.Now())
	})
	tk.Start()
	if err := eng.RunUntil(55 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10, 20, 30, 40, 50}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d: %v", len(fires), len(want), fires)
	}
	for i, w := range want {
		if fires[i] != w*time.Millisecond {
			t.Errorf("fire %d at %v, want %v", i, fires[i], w*time.Millisecond)
		}
	}
}

func TestTickerStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	tk := NewTicker(eng, 10*time.Millisecond, func() { count++ })
	tk.Start()
	eng.Schedule(35*time.Millisecond, tk.Stop)
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ticker fired %d times, want 3", count)
	}
	if tk.active {
		t.Error("Active() = true after Stop")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(eng, 10*time.Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	if err := eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("ticker fired %d times, want 2", count)
	}
}

func TestTickerRestart(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	tk := NewTicker(eng, 10*time.Millisecond, func() { count++ })
	tk.Start()
	eng.Schedule(25*time.Millisecond, tk.Stop)
	eng.Schedule(100*time.Millisecond, tk.Start)
	if err := eng.RunUntil(135 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Fires at 10, 20 (stopped at 25), restarted at 100: 110, 120, 130.
	if count != 5 {
		t.Errorf("ticker fired %d times, want 5", count)
	}
}

func TestTickerStartAt(t *testing.T) {
	eng := NewEngine(1)
	var fires []time.Duration
	tk := NewTicker(eng, 10*time.Millisecond, func() { fires = append(fires, eng.Now()) })
	tk.startAt(5 * time.Millisecond)
	if err := eng.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond}
	if len(fires) != 3 || fires[0] != want[0] || fires[1] != want[1] || fires[2] != want[2] {
		t.Errorf("fires = %v, want %v", fires, want)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	eng := NewEngine(1)
	var fires []time.Duration
	var tk *Ticker
	tk = NewTicker(eng, 10*time.Millisecond, func() {
		fires = append(fires, eng.Now())
		tk.setPeriod(20 * time.Millisecond)
	})
	tk.Start()
	if err := eng.RunUntil(55 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(fires) != 3 || fires[0] != want[0] || fires[1] != want[1] || fires[2] != want[2] {
		t.Errorf("fires = %v, want %v", fires, want)
	}
}

func TestTickerDoubleStartIsNoop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	tk := NewTicker(eng, 10*time.Millisecond, func() { count++ })
	tk.Start()
	tk.Start()
	if err := eng.RunUntil(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("ticker fired %d times, want 2 (double start must not double-fire)", count)
	}
}

func TestTickerInvalidConfigPanics(t *testing.T) {
	eng := NewEngine(1)
	for name, fn := range map[string]func(){
		"zero period": func() { NewTicker(eng, 0, func() {}) },
		"nil fn":      func() { NewTicker(eng, time.Second, nil) },
		"set zero":    func() { NewTicker(eng, time.Second, func() {}).setPeriod(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTickerStopReleasesPendingEvent(t *testing.T) {
	eng := NewEngine(1)
	tk := NewTicker(eng, 10*time.Millisecond, func() {})
	tk.Start()
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after Start, want 1", got)
	}
	tk.Stop()
	// Stop cancels the queued tick; Pending counts live events only, so
	// the dead tick must not show up even before the engine discards it.
	if got := eng.Pending(); got != 0 {
		t.Errorf("Pending() = %d after Stop, want 0", got)
	}
}
