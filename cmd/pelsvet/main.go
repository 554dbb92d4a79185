// Command pelsvet runs the PELS-specific static analyzers over the module.
//
// Usage:
//
//	pelsvet [-only analyzer,...] [-json] [-list] [-C dir] [packages...]
//
// With no package arguments it analyzes ./... . Diagnostics print one per
// line in the conventional file:line:col form; -json instead emits an
// indented JSON array with the same snake_case conventions as pelsbench's
// structured results. The exit status is 0 when the tree is clean, 1 when
// any diagnostic was reported, and 2 on a tool failure (bad flags, type
// errors, unknown analyzer).
//
// Intentional exceptions are written in the source, not in tool flags:
//
//	//pelsvet:allow walltime the wire boundary timestamps real packets
//
// See internal/lint for the analyzer framework and the individual checks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		only   = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		asJSON = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		list   = flag.Bool("list", false, "list available analyzers and exit")
		dir    = flag.String("C", ".", "module directory to analyze")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	analyzers, err := lint.Select(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pelsvet:", err)
		return 2
	}

	runner := &lint.Runner{Analyzers: analyzers}
	// Run returns partial diagnostics alongside per-package load errors:
	// print the findings first either way, then report the failure. One
	// broken package must not hide the findings in the healthy ones.
	diags, runErr := runner.Run(*dir, flag.Args()...)

	if *asJSON {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "pelsvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "pelsvet:", runErr)
		return 2
	}
	if len(diags) > 0 {
		if !*asJSON {
			fmt.Fprintf(os.Stderr, "pelsvet: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
