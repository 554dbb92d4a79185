package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads and spec.go is what the program
// emits; a name, unit, direction or bound in one and not the other is a
// contract the benchmark would break at run time.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", got.Paths)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", got.Command)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", got.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(got.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", got.Workloads, workloads)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", got.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, n := range append(append(workloadNames(), names(endToEnd)...), names(perLayer)...) {
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// smokeFigures keeps sim-figures' smoke run to the cheap entries.
var smokeFigures = []string{"fig9", "multibottleneck", "chaos-testbed", "nlayer-testbed"}

// Every workload, at about a second's scale, must emit exactly the declared
// metrics, all finite, and pass its own checks. Under the race detector the
// server is several times slower and the fixed offered loads are beyond it,
// so only the shape of the output is asserted there.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				p := params{seed: 7, seconds: 1, trace: traced, transport: "mem", figures: smokeFigures}
				if traced {
					p.seconds = 2
				}
				o, err := runWorkload(w.Name, p)
				if err == nil && !o.Correct && !raceEnabled {
					// A one-second window has no room for a freeze of the
					// VM, which the real ten-second one absorbs; a fault in
					// the benchmark fails twice.
					t.Logf("first attempt failed its checks, retrying: %v", o.Notes)
					o, err = runWorkload(w.Name, p)
				}
				if err != nil {
					t.Fatal(err)
				}
				decls := endToEnd
				if traced {
					decls = perLayer
				}
				var got []string
				for k, m := range o.Metrics {
					got = append(got, k)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", k, m.Value)
					}
					if !traced && !raceEnabled && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
					}
				}
				want := names(decls)
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("emitted metrics differ from the declared ones:\n got  %v\n want %v", got, want)
				}
				for _, d := range decls {
					if o.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, o.Metrics[d.Name].Unit, d.Unit)
					}
				}
				if o.Attempted < 1 {
					t.Errorf("attempted = %d", o.Attempted)
				}
				if !raceEnabled && !o.Correct {
					t.Errorf("failed its checks (%d of %d operations): %v", o.Failed, o.Attempted, o.Notes)
				}
				if traced && !raceEnabled && w.Name != "sim-barbell" && w.Name != "sim-figures" {
					checkBudget(t, o)
				}
			})
		}
	}
}

// checkBudget asserts a traced live run's table adds up: stage rows plus
// the residual equal the untraced cost per datagram.
func checkBudget(t *testing.T, o *outcome) {
	t.Helper()
	if len(o.Budget) < 3 {
		t.Fatalf("budget has %d rows", len(o.Budget))
	}
	total := o.Budget[len(o.Budget)-1].Ns
	var sum float64
	for _, r := range o.Budget[:len(o.Budget)-1] {
		sum += r.Ns
	}
	if total <= 0 || math.Abs(sum-total) > 1e-6*total {
		t.Errorf("budget rows sum to %v, untraced cpu per datagram is %v", sum, total)
	}
	if o.Metrics["server.residual_ns_per_datagram"].Value != o.Budget[len(o.Budget)-2].Ns {
		t.Errorf("residual metric and budget row disagree")
	}
}

// The simulator workloads are deterministic: one seed, one fingerprint.
func TestSimFingerprintRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator workloads twice")
	}
	p := params{seed: 3, seconds: 0.2, transport: "mem", figures: smokeFigures}
	for _, name := range []string{"sim-barbell", "sim-figures"} {
		a, err := runWorkload(name, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: fingerprints %q and %q", name, a.Fingerprint, b.Fingerprint)
		}
		other := p
		other.seed = 4
		c, err := runWorkload(name, other)
		if err != nil {
			t.Fatal(err)
		}
		if name == "sim-barbell" && c.Fingerprint == a.Fingerprint {
			t.Errorf("%s: seeds 3 and 4 share a fingerprint; the seed does not reach the inputs", name)
		}
	}
}
