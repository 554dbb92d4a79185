// Package lint is a from-scratch static-analysis framework for the PELS
// simulator, built entirely on the standard library (go/ast, go/parser,
// go/types, go/importer — no golang.org/x/tools). It exists to machine-check
// the invariants the paper reproduction depends on:
//
//   - the deterministic simulation core never reads the wall clock
//     (walltime analyzer),
//   - every random draw flows through an injected, seeded *rand.Rand
//     (seededrand analyzer),
//   - control-loop code never compares floats with == / != (floateq
//     analyzer),
//   - quantities with units (bit rates, durations) are not mixed or fed
//     raw untyped constants (unitmix analyzer),
//   - struct fields annotated (or inferred) as mutex-guarded are only
//     touched under their lock (guarded analyzer),
//   - //pelsvet:noalloc hot-path functions contain no allocating
//     constructs (noalloc analyzer),
//   - every spawned goroutine outside package main is tied to a
//     lifecycle — ctx, WaitGroup, or channel (goexit analyzer),
//   - no identifier, method or unexported field under internal/ is there
//     only for tests, and no field there is only written (deadexport
//     analyzer), and no …Config field there is a knob only its defaults
//     turn (deadknob analyzer).
//
// The last two are whole-module analyzers (RunModule): they read every
// package of the module, and of the modules nested in it, to decide.
//
// Diagnostics may be suppressed with a justification comment:
//
//	//pelsvet:allow walltime the wire boundary translates to virtual time here
//
// placed on the same line as the offending expression or on the line
// immediately above it. Several analyzers may be listed, comma-separated.
// Referencing an analyzer name that does not exist is itself reported, so
// stale allow comments cannot silently rot.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only selections, and
	// //pelsvet:allow comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf.
	Run func(*Pass)
	// RunModule, set instead of Run, inspects the whole module tree at
	// once; see ModulePass.
	RunModule func(*ModulePass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns every registered analyzer, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{WallTime, SeededRand, FloatEq, UnitMix, Guarded, NoAlloc, GoExit, DeadExport, DeadKnob}
}

// Select resolves a list of analyzer names. An empty list selects every
// analyzer; an unknown name is an error (never silently ignored).
func Select(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	known := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var sel []*Analyzer
	for _, n := range names {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// allowDirective is the comment prefix that suppresses a diagnostic.
const allowDirective = "//pelsvet:allow"

// allowSet records, per file line, which analyzers an allow comment names.
type allowSet map[string]map[int]map[string]bool

// collectAllows scans the package's comments for //pelsvet:allow directives.
// A directive naming an unknown analyzer is reported as a diagnostic from
// the pseudo-analyzer "pelsvet" so typos cannot silently disable nothing.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	allows := make(allowSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Analyzer: "pelsvet",
						Pos:      pos,
						Message:  "pelsvet:allow directive names no analyzer",
					})
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					if !known[name] {
						bad = append(bad, Diagnostic{
							Analyzer: "pelsvet",
							Pos:      pos,
							Message:  fmt.Sprintf("pelsvet:allow names unknown analyzer %q", name),
						})
						continue
					}
					byLine := allows[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						allows[pos.Filename] = byLine
					}
					if byLine[pos.Line] == nil {
						byLine[pos.Line] = make(map[string]bool)
					}
					byLine[pos.Line][name] = true
				}
			}
		}
	}
	return allows, bad
}

// suppressed reports whether d is covered by an allow comment on its own
// line or the line directly above it.
func (a allowSet) suppressed(d Diagnostic) bool {
	byLine := a[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if byLine[line][d.Analyzer] {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer,
// so output is deterministic regardless of analysis concurrency.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// jsonDiag is the stable machine-readable schema for one Diagnostic,
// following the same conventions as internal/runner's result records
// (snake_case keys, indented array, deterministic ordering).
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// WriteJSON emits diagnostics as an indented JSON array with a stable
// schema (analyzer, file, line, col, message). An empty slice encodes as
// [] rather than null so consumers can always range over the result.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	recs := make([]jsonDiag, len(diags))
	for i, d := range diags {
		recs[i] = jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// analyze runs the selected analyzers over one type-checked package and
// returns the surviving (non-suppressed) diagnostics.
func analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			diags:    &raw,
		}
		a.Run(pass)
	}
	allows, bad := collectAllows(fset, files)
	kept := bad
	for _, d := range raw {
		if !allows.suppressed(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// pathTail returns the last slash-separated segment of an import path.
func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// newInfo returns a types.Info with every map analyzers rely on allocated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
