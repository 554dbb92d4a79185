package experiments

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Artifact is a named bundle of time series an experiment exports for
// CSV plotting (the files pelsbench -csv writes).
type Artifact struct {
	// Name is the file name, e.g. "fig7_n4.csv".
	Name string
	// Series are the columns; the first series provides the time column.
	Series []*stats.TimeSeries
}

// Result is the uniform outcome of one registry experiment run.
type Result struct {
	// Output is the formatted, human-readable summary (what pelsbench
	// prints under the section header).
	Output string
	// Artifacts are the CSV exports, if any.
	Artifacts []Artifact
	// Events is the total number of simulator events processed across
	// the testbeds the experiment ran (0 for closed-form experiments).
	// The live entries (wire-loopback, chaos-wire, overload-wire) report
	// every datagram either end put on the wire or took off it.
	Events uint64
	// Metrics are named scalar outcomes surfaced through pelsbench
	// -json (goodput, per-color loss, …), under keys that stay stable:
	// the claims table and the root benchmark read them.
	Metrics map[string]float64
	// Obs, if non-nil, is the experiment's full metric registry.
	// pelsbench merges its flat snapshot into Metrics (explicit Metrics
	// keys win) and can export every recorded series to CSV. For
	// experiments that run several testbeds, it is the last run's
	// registry.
	Obs *obs.Registry
}

// Entry is one registered experiment: a stable name, a human title for
// section headers, and a seed-parameterized run function.
type Entry struct {
	// Name is the stable identifier used by pelsbench -only.
	Name string
	// Title is the section header printed above the output.
	Title string
	// Run executes the experiment with the given seed. Run functions are
	// self-contained (each builds its own engines), so distinct entries
	// and distinct seeds may run concurrently.
	Run func(seed int64) (Result, error)
	// at runs the experiment at a geometry; Run is at with the entry's
	// own duration.
	at func(geometry) (Result, error)
}

// geometry is where an entry runs: its seed and, when dur is non-zero, the
// simulated time that replaces the entry's own (fig8 reads it as whole
// 50-second steps). The claims table checks some rows at a shorter run
// than the published one; the closed-form and wall-clock entries ignore it.
type geometry struct {
	seed int64
	dur  time.Duration
}

// or returns the geometry's duration, or def when it sets none.
func (g geometry) or(def time.Duration) time.Duration {
	if g.dur > 0 {
		return g.dur
	}
	return def
}

// newEntry builds a registry entry from the function that runs it at a
// geometry.
func newEntry(name, title string, at func(geometry) (Result, error)) Entry {
	return Entry{
		Name:  name,
		Title: title,
		Run:   func(seed int64) (Result, error) { return at(geometry{seed: seed}) },
		at:    at,
	}
}

// Registry returns every experiment in canonical (paper) order. The
// returned slice is freshly allocated; callers may reorder or filter it.
func Registry() []Entry {
	return []Entry{
		newEntry("table1", "Table 1 — expected number of useful packets", table1At),
		newEntry("fig2", "Figure 2 — useful packets and utility vs frame size H", figure2At),
		newEntry("fig3", "Figure 3 — random vs ideal drop pattern in one frame", figure3At),
		newEntry("fig5", "Figure 5 — gamma controller stability (sigma=0.5 vs sigma=3)", figure5At),
		newEntry("fig7", "Figure 7 — gamma evolution and red loss convergence", figure7Sweep.at),
		newEntry("fig8", "Figure 8 / Figure 9 (left) — per-color queueing delays", figure8At),
		newEntry("fig9", "Figure 9 (right) — MKC convergence and fairness", figure9At),
		newEntry("fig10", "Figure 10 — PSNR of reconstructed Foreman (PELS vs best-effort)", figure10At),
		newEntry("ablations", "Ablations — design-choice variants (DESIGN.md §6)", ablationSweep.at),
		newEntry("multibottleneck", "Multi-bottleneck — max-min feedback and bottleneck shift (§5.2)", multiBottleneckAt),
		newEntry("utilization", "Useful link utilization — PELS vs best-effort (§1)", utilizationSweep.at),
		newEntry("isolation", "WRR isolation — PELS and Internet queues do not affect each other (§6.1)", isolationSweep.at),
		newEntry("controllers", "Congestion-control independence — PELS under every controller (§5)", controllerSweep.at),
		newEntry("rttfairness", "RTT fairness — MKC does not penalize long-RTT flows (Lemma 6)", rttFairnessSweep.at),
		newEntry("mixed", "Mixed controller population — MKC vs AIMD on shared PELS queues", mixedSweep.at),
		newEntry("wire-loopback", "Wire loopback — live UDP stack over the in-process emulator", wireLoopbackAt),
		newEntry("chaos-testbed", "Chaos testbed — fault schedule plus gateway swap, deterministic (§ robustness)", chaosTestbedAt),
		newEntry("chaos-wire", "Chaos wire — live stack under faults with a mid-stream gateway swap", chaosWireAt),
		newEntry("overload-wire", "Overload wire — flash crowd, hello storm, layer shedding and reconnect", overloadWireAt),
		newEntry("nlayer-testbed", "N-layer ladder — 8 strict-priority layers with gamma split points", nLayerAt),
		newEntry("rdscaling", "R-D-aware rate scaling — the §6.5 smoothing extension", rdScalingSweep.at),
	}
}

// Names returns the registry names in canonical order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
