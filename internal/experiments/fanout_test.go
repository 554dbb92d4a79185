package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// withGOMAXPROCS runs fn with the given processor count and restores the
// previous one.
func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// csvBytes renders a Result's artifacts the way pelsbench -csv writes them.
func csvBytes(t *testing.T, res Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, a := range res.Artifacts {
		fmt.Fprintf(&b, "== %s\n", a.Name)
		if err := stats.WriteCSV(&b, a.Series...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// fannedOut are the entries that spread their testbeds with fanOut.
var fannedOut = []string{"fig7", "fig10", "ablations", "isolation", "controllers", "rdscaling", "utilization"}

// TestFanOutIsInvisible: an entry's text, metrics, CSV artifacts byte for
// byte and event count are the same whether its testbeds ran one after
// another on one processor or side by side on four. It is not skipped in
// -short (it only shortens the simulated time), so the -race lane always
// has the fan-out's goroutines under the detector.
func TestFanOutIsInvisible(t *testing.T) {
	g := geometry{seed: 1, dur: 40 * time.Second}
	if testing.Short() {
		g.dur = 6 * time.Second
	}
	for _, name := range fannedOut {
		e, _ := Lookup(name)
		var serial, spread Result
		var serialErr, spreadErr error
		withGOMAXPROCS(1, func() { serial, serialErr = e.at(g) })
		withGOMAXPROCS(4, func() { spread, spreadErr = e.at(g) })
		if serialErr != nil || spreadErr != nil {
			t.Fatalf("%s: GOMAXPROCS=1 error %v, GOMAXPROCS=4 error %v", name, serialErr, spreadErr)
		}
		if serial.Events == 0 {
			t.Errorf("%s: processed no events", name)
		}
		if serial.Events != spread.Events {
			t.Errorf("%s: %d events on one processor, %d on four", name, serial.Events, spread.Events)
		}
		if serial.Output != spread.Output {
			t.Errorf("%s: output differs\n--- GOMAXPROCS=1\n%s--- GOMAXPROCS=4\n%s", name, serial.Output, spread.Output)
		}
		if !maps.Equal(serial.Metrics, spread.Metrics) {
			t.Errorf("%s: metrics differ between one processor and four", name)
		}
		if !bytes.Equal(csvBytes(t, serial), csvBytes(t, spread)) {
			t.Errorf("%s: CSV artifacts differ between one processor and four", name)
		}
	}
	if n := helpers.Load(); n != 0 {
		t.Errorf("%d helper goroutines still counted after every fan-out returned", n)
	}
}

// TestFanOutReturnsLowestFailingIndex: whichever goroutine hits an error
// first, the caller sees what the serial loop would have returned — the
// error of the lowest failing index — and every index below it has run.
func TestFanOutReturnsLowestFailingIndex(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for round := 0; round < 50; round++ {
				var ran [12]atomic.Bool
				err := fanOut(len(ran), func(i int) error {
					ran[i].Store(true)
					if i == 9 {
						return errors.New("nine") // fails fast, usually first
					}
					if i == 4 || i == 7 {
						time.Sleep(time.Millisecond)
						return fmt.Errorf("index %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "index 4" {
					t.Fatalf("GOMAXPROCS=%d: fanOut returned %v, want the error of index 4", procs, err)
				}
				for i := 0; i < 4; i++ {
					if !ran[i].Load() {
						t.Fatalf("GOMAXPROCS=%d: index %d below the failure never ran", procs, i)
					}
				}
			}
		})
	}
	if err := fanOut(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty fan-out returned %v", err)
	}
}

// TestFanOutHelpersAreBoundedProcessWide: several experiments fanning out
// at once (pelsbench -parallel) share one budget of GOMAXPROCS-1 helpers,
// so no more runs are ever in flight than callers plus that budget.
func TestFanOutHelpersAreBoundedProcessWide(t *testing.T) {
	const callers, procs = 3, 4
	withGOMAXPROCS(procs, func() {
		var inFlight, peak atomic.Int32
		var total atomic.Int32
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := fanOut(16, func(int) error {
					n := inFlight.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					time.Sleep(200 * time.Microsecond)
					inFlight.Add(-1)
					total.Add(1)
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := total.Load(); got != callers*16 {
			t.Errorf("%d runs completed, want %d", got, callers*16)
		}
		if got, limit := peak.Load(), int32(callers+procs-1); got > limit {
			t.Errorf("%d runs in flight at once, want at most %d (callers + GOMAXPROCS-1)", got, limit)
		}
	})
	if n := helpers.Load(); n != 0 {
		t.Errorf("%d helper goroutines still counted after every fan-out returned", n)
	}
}
