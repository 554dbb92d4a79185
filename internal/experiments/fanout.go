package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the fan-out helper goroutines running in the whole
// process. Bounding them globally, not per call, is what lets fan-outs nest
// under pelsbench -parallel without oversubscribing the machine: however
// many experiments run at once, they share GOMAXPROCS-1 helpers.
var helpers atomic.Int32

// fanOut calls run(i) for every i in [0, n) and returns the error of the
// lowest failing index, as a serial loop that stops at the first error
// would. The calling goroutine always works; up to GOMAXPROCS-1 helpers
// process-wide join it. Each run must build its own engine and touch only
// its own slot of the caller's result slice — the simulator's rule is one
// engine, one goroutine — so the outcome does not depend on how the
// indices were shared out.
func fanOut(n int, run func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int32
	var failed atomic.Bool
	work := func() {
		// Indices are handed out in order, so by the time one fails every
		// lower index has already been claimed and will record its own
		// outcome; only higher ones are skipped.
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = run(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for spawned := 1; spawned < n; spawned++ {
		if helpers.Add(1) > limit {
			helpers.Add(-1)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
