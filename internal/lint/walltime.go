package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs names the packages (by final import-path segment) that
// form the deterministic simulation core: everything inside them must be a
// pure function of the simulation seed. Only internal/wire and the cmd/
// binaries may touch the wall clock freely; they sit outside this set.
// internal/obs is included: it serves both sides, so its call paths must
// never read the clock themselves — callers pass every timestamp in (sim
// time or a wall-clock offset). internal/runner is included too: its
// deadline clocks are the one sanctioned exception (each carries a
// justifying //pelsvet:allow).
var deterministicPkgs = map[string]bool{
	"sim":          true,
	"netsim":       true,
	"queue":        true,
	"aqm":          true,
	"cc":           true,
	"pels":         true,
	"fgs":          true,
	"crosstraffic": true,
	"tcp":          true,
	"video":        true,
	"stats":        true,
	"obs":          true,
	"fault":        true,
	// session is walltime-clean by construction: every instant arrives as
	// an argument or through an injected Clock (wire.SystemClock in
	// production), so the server core (wheel, table, admission, ticks) is
	// testable on a virtual clock.
	"session": true,
	// timewheel is the wheel under both session and wire: it is handed
	// every instant, which is what lets either side drive it from a
	// synthetic clock.
	"timewheel": true,
	// runner hosts the worker pool; its wall-clock uses (job duration
	// metadata, per-job timeout timers) are individually justified with
	// //pelsvet:allow — anything new must justify itself the same way.
	"runner": true,
}

// walltimeBanned lists the package time functions that read or wait on the
// wall clock. Pure time arithmetic (time.Duration values, constants like
// time.Millisecond, ParseDuration) remains allowed: the simulator's virtual
// clock is itself a time.Duration.
var walltimeBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallTime forbids wall-clock access inside the deterministic simulation
// packages. A run of the simulator must be a pure function of its seed; a
// single time.Now() in the event loop destroys bit-reproducibility of every
// figure and table in the paper reproduction.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "forbid time.Now/Sleep/After/Since and timer constructors in the " +
		"deterministic simulation packages (sim, netsim, queue, aqm, cc, pels, " +
		"fgs, crosstraffic, tcp, video, stats, obs, fault, session, " +
		"timewheel, runner); only internal/wire and cmd/ may touch the wall clock",
	Run: runWallTime,
}

func runWallTime(pass *Pass) {
	if !deterministicPkgs[pathTail(pass.Pkg.Path())] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			// Methods on time.Time (t.After, t.Sub, ...) are pure value
			// arithmetic; only the package-level functions read the clock.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if walltimeBanned[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock inside deterministic package %q; use the sim.Engine virtual clock",
					fn.Name(), pass.Pkg.Name())
			}
			return true
		})
	}
}
