// Command pelsbench regenerates every table and figure of the paper's
// evaluation section. Summary rows print to stdout; with -csv DIR the
// underlying time series are exported as CSV files for plotting.
//
// Experiments fan out across a worker pool (-parallel, default
// runtime.NumCPU()): each job owns an independent sim.Engine, so runs are
// embarrassingly parallel and the formatted output is byte-identical to a
// serial run. -replicas N repeats every experiment at seeds seed..seed+N-1
// for confidence intervals; -json FILE records structured per-job results
// (name, seed, wall-clock duration, events processed, error status).
//
// Usage:
//
//	pelsbench [-only <subset>] [-csv DIR] [-seed N] [-parallel N]
//	          [-replicas N] [-json FILE] [-timeout D]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pelsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	only := flag.String("only", "", "comma-separated subset of experiment names (default: all; see -list)")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "directory to write time-series CSV files into")
	seed := flag.Int64("seed", 1, "base simulation seed; replica r runs at seed+r")
	parallel := flag.Int("parallel", runtime.NumCPU(), "number of experiments run concurrently")
	replicas := flag.Int("replicas", 1, "seed replicas per experiment")
	jsonPath := flag.String("json", "", "write structured per-job results to FILE as JSON")
	timeout := flag.Duration("timeout", 0, "per-experiment wall-clock timeout (0 = none)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return nil
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1 (got %d)", *replicas)
	}

	entries, err := selectEntries(*only)
	if err != nil {
		return err
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	jobs, titles := buildJobs(entries, *seed, *replicas, *csvDir)
	pool := runner.Pool{Workers: *parallel, Timeout: *timeout}
	results := pool.Run(jobs)

	failed := 0
	for i, res := range results {
		header := titles[i]
		if *replicas > 1 {
			header = fmt.Sprintf("%s [replica %d, seed %d]", header, res.Replica, res.Seed)
		}
		fmt.Printf("\n=== %s ===\n", header)
		if res.Err != nil {
			failed++
			fmt.Printf("FAILED: see summary\n")
			fmt.Fprintf(os.Stderr, "pelsbench: %s (seed %d): %v\n", res.Name, res.Seed, res.Err)
			continue
		}
		fmt.Print(res.Text)
	}

	// The status table goes to stderr so stdout stays a deterministic,
	// diff-friendly record of the experiment outputs alone.
	fmt.Fprintf(os.Stderr, "\n%s", runner.FormatSummary(results))

	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(f *os.File) error { return runner.WriteJSON(f, results) }); err != nil {
			return err
		}
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(jobs))
	}
	return nil
}

// selectEntries resolves the -only flag against the registry. Unknown
// names are an error listing the valid ones, so a typo like "fig4" fails
// loudly instead of silently printing nothing.
func selectEntries(only string) ([]experiments.Entry, error) {
	all := experiments.Registry()
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := experiments.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experiments.Names(), ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-only contains no experiment names (valid: %s)", strings.Join(experiments.Names(), ", "))
	}
	var sel []experiments.Entry
	for _, e := range all {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// buildJobs expands entries × replicas into runner jobs (replica r runs
// at baseSeed+r) plus a parallel slice of section titles. Each job writes
// its own CSV artifacts from the worker goroutine; file names get a
// replica prefix when replicas > 1 so concurrent writers never collide.
func buildJobs(entries []experiments.Entry, baseSeed int64, replicas int, csvDir string) ([]runner.Job, []string) {
	var jobs []runner.Job
	var titles []string
	for _, e := range entries {
		for r := 0; r < replicas; r++ {
			e, r := e, r
			jobs = append(jobs, runner.Job{
				Name:    e.Name,
				Replica: r,
				Seed:    baseSeed + int64(r),
				Run: func(seed int64) (runner.Output, error) {
					res, err := e.Run(seed)
					if err != nil {
						return runner.Output{}, err
					}
					for _, a := range res.Artifacts {
						name := a.Name
						if replicas > 1 {
							name = fmt.Sprintf("r%d_%s", r, name)
						}
						if err := writeCSV(csvDir, name, a.Series...); err != nil {
							return runner.Output{}, err
						}
					}
					metrics := res.Metrics
					if res.Obs != nil {
						// The registry snapshot rides along in -json;
						// explicitly curated Metrics keys win on collision.
						snap := res.Obs.Snapshot()
						if len(snap) > 0 {
							for k, v := range metrics {
								snap[k] = v
							}
							metrics = snap
						}
						name := e.Name + "_obs.csv"
						if replicas > 1 {
							name = fmt.Sprintf("r%d_%s", r, name)
						}
						if err := writeObsCSV(csvDir, name, res.Obs); err != nil {
							return runner.Output{}, err
						}
					}
					return runner.Output{Text: res.Output, Events: res.Events, Metrics: metrics}, nil
				},
			})
			titles = append(titles, e.Title)
		}
	}
	return jobs, titles
}

// writeObsCSV exports every series recorded in reg as one CSV (same
// column-pair layout as the artifact files, so pelsplot reads it
// directly). Registries with no series write nothing.
func writeObsCSV(dir, name string, reg *obs.Registry) error {
	if dir == "" || len(reg.SeriesNames()) == 0 {
		return nil
	}
	return writeFile(filepath.Join(dir, name), func(f *os.File) error { return reg.WriteCSV(f) })
}

func writeCSV(dir, name string, series ...*stats.TimeSeries) error {
	if dir == "" {
		return nil
	}
	return writeFile(filepath.Join(dir, name), func(f *os.File) error { return stats.WriteCSV(f, series...) })
}

// writeFile creates path, fills it with write and closes it. A failed close
// is an error: it can be the write that did not reach the disk.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
