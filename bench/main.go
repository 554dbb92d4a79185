// Command bench is the repository's end-to-end benchmark: it hosts the
// live server with its receivers, and the simulator, in one process, runs
// a named workload from a seed for a fixed time, checks the outputs, and
// prints every metric by name with its unit. See README.md.
//
// The driver's form (one workload, one JSON object on the last line):
//
//	bench --workload loop-mem --seed 3 --seconds 10 --trace 0
//
// By hand:
//
//	bench -workload all -seed 1              every workload, one JSON document
//	bench -workload egress-wide -trace 1     the per-layer run and its budget table
//	bench -workload all -repeat 5            medians, quartiles and the spread check
//	bench -workload loop-mem -transport udp  the same workload over 127.0.0.1 (diagnosis only)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// params is one run's inputs.
type params struct {
	seed      int64
	seconds   float64
	trace     bool
	transport string // "mem" or "udp"
	traceOut  string
	// figures narrows sim-figures to a subset (the smoke test's lever).
	figures []string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// budgetRow is one line of a traced run's cost attribution.
type budgetRow struct {
	Stage string  `json:"stage"`
	Ns    float64 `json:"ns_per_datagram"`
}

// outcome is a result plus what a person wants to read next to it.
type outcome struct {
	result
	Usage       string      `json:"window,omitempty"`
	Notes       []string    `json:"failed_checks,omitempty"`
	Fingerprint string      `json:"sim_fingerprint,omitempty"`
	Budget      []budgetRow `json:"budget,omitempty"`
}

// finish builds an outcome holding exactly the metrics decls declares, with
// their units; a declared metric the run did not produce (a layer that did
// no work in this workload) is 0.
func finish(values map[string]float64, decls []metricDecl, attempted, failed int64, notes []string) *outcome {
	o := &outcome{Notes: notes}
	o.Attempted, o.Failed = attempted, failed
	if o.Attempted < 1 {
		o.Attempted = 1
	}
	o.Correct = len(notes) == 0 && failed == 0
	o.Metrics = make(map[string]metric, len(decls))
	for _, d := range decls {
		o.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return o
}

// runWorkload runs one workload once.
func runWorkload(name string, p params) (*outcome, error) {
	resetPeakRSS()
	for _, spec := range liveSpecs {
		if spec.name != name {
			continue
		}
		// One P: on two or more the server's workers and driver contend
		// across cores for the jobs channel and the wheel lock, and whether
		// the kernel packs their threads onto one core or spreads them
		// flips CPU per datagram between 0.7 and 1.8 us from run to run
		// (README.md, "Why one P"). Cost per datagram is a per-core number.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if p.trace {
			return traceLive(p, spec)
		}
		run, err := measureLive(p, spec, nil)
		if err != nil {
			return nil, err
		}
		o := finish(run.endToEndMetrics(), endToEnd, run.attempted, run.failed, run.notes)
		o.Usage = run.usage.String()
		return o, nil
	}
	var run *simRun
	var err error
	sp := p
	if p.trace {
		sp.seconds = p.seconds * 0.6
	}
	switch name {
	case "sim-barbell":
		run, err = runBarbell(sp)
	case "sim-figures":
		run, err = runFigures(sp, p.figures)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	var o *outcome
	if p.trace {
		o = finish(perLayerSim(run, runSimStages(seconds(p.seconds*0.3))), perLayer, run.attempted, run.failed, run.notes)
	} else {
		o = finish(run.endToEndMetrics(), endToEnd, run.attempted, run.failed, run.notes)
	}
	o.Fingerprint = run.fingerprint
	o.Usage = run.usage.String()
	return o, nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// document is what -workload all and -repeat print.
type document struct {
	Machine   machine             `json:"machine"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Transport string              `json:"transport"`
	Traced    bool                `json:"traced"`
	Workloads map[string]*outcome `json:"workloads,omitempty"`
	Repeat    map[string][]spread `json:"repeat,omitempty"`
}

// spread is one end-to-end metric's run-to-run statistics under -repeat.
type spread struct {
	Metric string    `json:"metric"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (q3-q1)/median, the quantity the driver bounds.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within_bound"`
}

// repeatWorkload runs name n times, each in a process of its own as the
// driver does (a second run in the same process inherits the first one's
// heap and reads differently), and summarizes every end-to-end metric.
// setup_s is reported but, as in the driver, not held to its bound here.
func repeatWorkload(name string, p params, n int) ([]spread, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	values := map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(p.seed),
			"-seconds", fmt.Sprint(p.seconds), "-transport", p.transport)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return nil, false, err
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
			return nil, false, fmt.Errorf("run %d printed no result: %v (%v)", i+1, jerr, err)
		}
		if !r.Correct {
			ok = false
		}
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	var out []spread
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(values[d.Name])
		s := spread{Metric: d.Name, Unit: d.Unit, Values: values[d.Name], Q1: q1, Median: q2, Q3: q3, Bound: d.Bound}
		if q2 != 0 {
			s.Spread = (q3 - q1) / q2
		}
		s.Within = s.Spread <= d.Bound || d.Name == "setup_s"
		ok = ok && s.Within
		out = append(out, s)
	}
	return out, ok, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer run; 0 the end-to-end one")
	traceOut := fs.String("trace-out", "", "write the traced run's sampled spans to this file as JSON lines")
	repeat := fs.Int("repeat", 0, "run each workload this many times and check the end-to-end spread against its bound")
	transport := fs.String("transport", "mem", "mem (in-memory, gated) or udp (127.0.0.1, diagnosis only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *transport != "mem" && *transport != "udp" {
		fmt.Fprintf(os.Stderr, "bench: -transport must be mem or udp, got %q\n", *transport)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace != 0, transport: *transport, traceOut: *traceOut}

	selected := []string{*workload}
	if *workload == "all" {
		selected = workloadNames()
	}
	doc := document{Machine: fingerprint(), Seed: p.seed, Seconds: p.seconds, Transport: *transport, Traced: p.trace}
	if *transport == "udp" {
		doc.Transport = "udp over 127.0.0.1 loopback (not gated)"
	}
	enc := json.NewEncoder(os.Stdout)

	if *repeat > 0 {
		doc.Repeat = map[string][]spread{}
		allOK := true
		for _, name := range selected {
			s, ok, err := repeatWorkload(name, p, *repeat)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			doc.Repeat[name] = s
			allOK = allOK && ok
		}
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return 1
		}
		if !allOK {
			fmt.Fprintln(os.Stderr, "bench: a run failed its checks or a spread exceeds its bound")
			return 1
		}
		return 0
	}

	if *workload != "all" {
		// The driver's form: diagnostics on stderr, the result alone on
		// the last line of stdout.
		start := time.Now()
		o, err := runWorkload(*workload, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
			return 1
		}
		m, _ := json.Marshal(doc.Machine)
		fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%g transport=%s took %.1fs on %s\n",
			*workload, p.seed, p.seconds, doc.Transport, time.Since(start).Seconds(), m)
		fmt.Fprintf(os.Stderr, "bench: window: %s\n", o.Usage)
		if o.Fingerprint != "" {
			fmt.Fprintf(os.Stderr, "bench: sim_fingerprint %s\n", o.Fingerprint)
		}
		printBudget(os.Stderr, *workload, o.Budget)
		for _, note := range o.Notes {
			fmt.Fprintf(os.Stderr, "bench: FAILED CHECK: %s\n", note)
		}
		if err := enc.Encode(o.result); err != nil {
			return 1
		}
		if !o.Correct {
			return 1
		}
		return 0
	}

	doc.Workloads = map[string]*outcome{}
	allOK := true
	for _, name := range selected {
		o, err := runWorkload(name, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printBudget(os.Stderr, name, o.Budget)
		doc.Workloads[name] = o
		allOK = allOK && o.Correct
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return 1
	}
	if !allOK {
		fmt.Fprintln(os.Stderr, "bench: a workload failed its correctness checks")
		return 1
	}
	return 0
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so a
// workload run after another in one process reports its own peak. Where
// the kernel refuses, the mark stays cumulative (the driver runs one
// workload per process, so its numbers never depend on this).
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}
