package session

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestHotPathZeroAllocs holds the server's three per-datagram and per-wake
// structures at zero allocations in the steady state: a table lookup (every
// feedback datagram), a wheel tick that re-arms every fired timer (every
// pacing wake) and one flushed batch of feedback labels applied under the
// session's lock (every batcher flush). Each row warms up first, so what is
// measured is the steady state and not first-lap growth.
func TestHotPathZeroAllocs(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	for _, tc := range []struct {
		name   string
		warmup int
		setup  func(t *testing.T) func(i int)
	}{
		{"Table.Get/4096", 100, func(t *testing.T) func(int) {
			const n = 4096
			tb := NewTable(16)
			keys := make([]Key, n)
			for i := range keys {
				keys[i] = Key{
					Addr: fmt.Sprintf("10.%d.%d.%d:%d", i>>16&255, i>>8&255, i&255, 5000+i&1023),
					Flow: uint32(i + 1),
				}
				tb.Put(keys[i], testSession(t, keys[i], t0))
			}
			return func(i int) {
				if tb.Get(keys[i&(n-1)]) == nil {
					t.Fatal("lookup miss")
				}
			}
		}},
		{"Wheel.Advance+Reschedule/1024", 4096, func(t *testing.T) func(int) {
			const n = 1024
			w := NewWheel(time.Millisecond, 512, t0)
			for i := 0; i < n; i++ {
				w.Schedule(t0.Add(time.Duration(1+i%16)*time.Millisecond), func(time.Time) {})
			}
			var fired []*Timer
			now := t0
			return func(i int) {
				now = now.Add(time.Millisecond)
				fired = w.Advance(now, fired[:0])
				for j, tm := range fired {
					w.Reschedule(tm, now.Add(time.Duration(1+(i+j)%16)*time.Millisecond))
					fired[j] = nil
				}
				if w.Len() != n {
					t.Fatalf("wheel holds %d timers, want %d", w.Len(), n)
				}
			}
		}},
		{"Session.HandleFeedbackBatch/64", 100, func(t *testing.T) func(int) {
			s := testSession(t, Key{Addr: "10.0.0.1:5000", Flow: 1}, t0)
			labels := make([]packet.Feedback, 64)
			epoch := uint64(0)
			return func(int) {
				for j := range labels {
					epoch++
					labels[j] = packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.05, Valid: true}
				}
				if got := s.HandleFeedbackBatch(labels, t0); got != len(labels) {
					t.Fatalf("accepted %d of %d labels", got, len(labels))
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := tc.setup(t)
			i := 0
			run := func() {
				step(i)
				i++
			}
			for k := 0; k < tc.warmup; k++ {
				run()
			}
			if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
				t.Errorf("%s allocates %.2f/op, want 0", tc.name, allocs)
			}
		})
	}
}
