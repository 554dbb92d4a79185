//go:build ignore

// abtable prints the A/B table of scripts/ab.sh: one row per end-to-end
// metric, from two files holding one bench result (the JSON line bench
// prints last) per run, the i-th line of each being the i-th pair.
//
//	go run scripts/abtable.go <workload> <parent.jsonl> <change.jsonl>
//
// Run it from the repository root: the metrics and which direction is better
// come from BENCHMARK.json. It exits 1 when any run reports "correct": false.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/stats"
)

// result is the part of bench's JSON line the table reads.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// endToEnd reads the end-to-end metrics, in order and with the direction
// that is better, from the BENCHMARK.json of the working directory.
func endToEnd() ([]metric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return decl.EndToEnd, nil
}

type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "higher" or "lower"
}

func read(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// summary is "median [Q1, Q3]" with inclusive quartiles, and the IQR.
func summary(vs []float64) (string, float64, float64) {
	q1, med, q3 := stats.Percentile(vs, 25), stats.Percentile(vs, 50), stats.Percentile(vs, 75)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3), med, q3 - q1
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/abtable.go <workload> <parent.jsonl> <change.jsonl>")
		os.Exit(2)
	}
	workload := os.Args[1]
	parent, perr := read(os.Args[2])
	change, cerr := read(os.Args[3])
	metrics, merr := endToEnd()
	err := errors.Join(perr, cerr, merr)
	if err == nil && (len(parent) == 0 || len(parent) != len(change)) {
		err = fmt.Errorf("%d parent runs against %d change runs: not pairs", len(parent), len(change))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abtable:", err)
		os.Exit(2)
	}
	pairs := len(parent)
	fmt.Println("| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] | Δ median | parent IQR | change better in |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, m := range metrics {
		var pv, cv []float64
		wins, ties := 0, 0
		for i := range parent {
			p, c := parent[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
			pv, cv = append(pv, p), append(cv, c)
			switch {
			case p == c: // a tie: the same reading on both sides
				ties++
			case (c > p) == (m.Better == "higher"):
				wins++
			}
		}
		ps, pmed, piqr := summary(pv)
		cs, cmed, _ := summary(cv)
		delta := "n/a"
		if pmed != 0 {
			delta = fmt.Sprintf("%+.1f %%", 100*(cmed-pmed)/pmed)
		}
		better := fmt.Sprintf("%d/%d", wins, pairs)
		if ties > 0 {
			better += fmt.Sprintf(", %d ties", ties)
		}
		fmt.Printf("| %s | %s | %s | %s | %s | %.4g | %s |\n", workload, m.Name, ps, cs, delta, piqr, better)
	}
	bad := 0
	for _, side := range []string{"parent", "change"} {
		runs, failed, attempted := parent, 0, 0
		if side == "change" {
			runs = change
		}
		for i, r := range runs {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
			if !r.Correct {
				bad++
				fmt.Fprintf(os.Stderr, "abtable: %s run %d: correct:false\n", side, i+1)
			}
		}
		fmt.Fprintf(os.Stderr, "abtable: %s: failed %d of %d attempted over %d runs\n", side, failed, attempted, len(runs))
	}
	if bad > 0 {
		os.Exit(1)
	}
}
