package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool

	TestGoFiles  []string
	XTestGoFiles []string
}

// goList runs `go list -deps -export -json` for the given patterns in dir
// and decodes the stream of package objects. -export makes the go tool
// write export data for every package in the dependency graph into the
// build cache, which is what lets the type checker resolve imports without
// re-typechecking the world from source.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	// -e keeps the listing alive when a package is broken: the broken
	// package simply lists without export data, its parse/typecheck error
	// surfaces when loadModule checks it, and every healthy package is
	// still analyzed (Runner.Run returns partial diagnostics + the errors).
	args := []string{
		"list", "-deps", "-e", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,TestGoFiles,XTestGoFiles",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves import paths to *types.Package by reading gc
// export data recorded by `go list -export`. Paths it has not seen yet are
// resolved with a lazy `go list` call, so the golden-file test harness can
// pull in stdlib packages on demand. It is not safe for concurrent use.
type exportImporter struct {
	dir     string
	exports map[string]string
	gc      types.Importer
}

// newExportImporter returns an importer rooted at dir (any directory the
// go tool can run in). fset must be the FileSet shared with the caller's
// type checker so positions stay consistent.
func newExportImporter(fset *token.FileSet, dir string) *exportImporter {
	e := &exportImporter{dir: dir, exports: make(map[string]string)}
	e.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := e.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return e
}

// seed records already-known export data locations (from a prior goList).
func (e *exportImporter) seed(pkgs []listedPackage) {
	for _, p := range pkgs {
		if p.Export != "" {
			e.exports[p.ImportPath] = p.Export
		}
	}
}

// exportFile returns the export data file for path, shelling out to
// `go list` if it is not cached.
func (e *exportImporter) exportFile(path string) (string, error) {
	if f, ok := e.exports[path]; ok {
		return f, nil
	}
	pkgs, err := goList(e.dir, []string{path})
	if err != nil {
		return "", err
	}
	e.seed(pkgs)
	f, ok := e.exports[path]
	if !ok {
		return "", fmt.Errorf("lint: no export data for %q", path)
	}
	return f, nil
}

// Import implements types.Importer.
func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

// Runner loads, type-checks, and analyzes packages.
type Runner struct {
	// Analyzers to run; nil means all registered analyzers.
	Analyzers []*Analyzer
}

// Run analyzes the packages matched by patterns (e.g. "./...") relative to
// dir and returns every surviving diagnostic, sorted deterministically.
// Test files are not analyzed: tests legitimately use wall clocks and ad
// hoc randomness, and the determinism contract applies to the simulator
// itself. Every package is type-checked once, in one load of the whole
// module containing dir and of every module nested in it (loadModule).
// The per-package analyzers run over the matched packages of that load;
// the whole-module analyzers report only in them, but read all of it.
//
// A package that fails to parse or type-check does not abort the run: the
// remaining packages are still analyzed, their diagnostics are returned,
// and the load errors come back joined as the error value. The
// whole-module analyzers are skipped then, since every reference the
// broken package holds is missing. Callers therefore must consume the
// diagnostics even when err != nil — one broken package must not hide the
// findings in ninety-nine healthy ones.
func (r *Runner) Run(dir string, patterns ...string) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all := r.Analyzers
	if all == nil {
		all = Analyzers()
	}
	var analyzers, moduleAnalyzers []*Analyzer
	for _, a := range all {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
		} else {
			analyzers = append(analyzers, a)
		}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var targets []string
	for _, p := range listed {
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p.ImportPath)
		}
	}
	fset := token.NewFileSet()
	pkgs, loadErr := loadModule(fset, newExportImporter(fset, dir), dir, targets)
	var diags []Diagnostic
	for _, p := range pkgs {
		if p.Target {
			diags = append(diags, analyze(fset, p.Files, p.Pkg, p.Info, analyzers)...)
		}
	}
	if loadErr == nil && len(moduleAnalyzers) > 0 {
		diags = append(diags, analyzeModule(fset, pkgs, moduleAnalyzers)...)
	}
	SortDiagnostics(diags)
	return diags, loadErr
}

// parseFiles parses the named files of the package in dir, with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}
