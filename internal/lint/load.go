package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"runtime"
	"sort"
	"sync"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
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
	// surfaces per package in checkPackage, and every healthy package is
	// still analyzed (Runner.Run returns partial diagnostics + the errors).
	args := []string{
		"list", "-deps", "-e", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,TestGoFiles,XTestGoFiles",
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
// pull in stdlib packages on demand. All methods are safe for concurrent
// use; the underlying go/importer gc importer is not, so every import is
// serialized behind a mutex (import resolution is a fast binary read — the
// expensive per-package typechecking still runs in parallel).
type exportImporter struct {
	dir string

	mu      sync.Mutex
	exports map[string]string
	gc      types.Importer
}

// newExportImporter returns an importer rooted at dir (any directory the
// go tool can run in). fset must be the FileSet shared with the caller's
// type checker so positions stay consistent.
func newExportImporter(fset *token.FileSet, dir string) *exportImporter {
	e := &exportImporter{dir: dir, exports: make(map[string]string)}
	e.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		// Called with e.mu held (all imports funnel through Import).
		file, err := e.exportFileLocked(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return e
}

// seed records already-known export data locations (from a prior goList).
func (e *exportImporter) seed(pkgs []listedPackage) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range pkgs {
		if p.Export != "" {
			e.exports[p.ImportPath] = p.Export
		}
	}
}

// exportFileLocked returns the export data file for path, shelling out to
// `go list` if it is not cached. e.mu must be held.
func (e *exportImporter) exportFileLocked(path string) (string, error) {
	if f, ok := e.exports[path]; ok {
		return f, nil
	}
	pkgs, err := goList(e.dir, []string{path})
	if err != nil {
		return "", err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			e.exports[p.ImportPath] = p.Export
		}
	}
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gc.Import(path)
}

// Runner loads, type-checks, and analyzes packages concurrently.
type Runner struct {
	// Analyzers to run; nil means all registered analyzers.
	Analyzers []*Analyzer
	// Concurrency bounds the number of packages analyzed in parallel.
	// Zero means GOMAXPROCS.
	Concurrency int
}

// Run analyzes the packages matched by patterns (e.g. "./...") relative to
// dir and returns every surviving diagnostic, sorted deterministically.
// Test files are not analyzed: tests legitimately use wall clocks and ad
// hoc randomness, and the determinism contract applies to the simulator
// itself. The whole-module analyzers still report only in the matched
// packages, but read the whole module containing dir, and every module
// nested in it, to decide.
//
// A package that fails to parse or type-check does not abort the run: the
// remaining packages are still analyzed, their diagnostics are returned,
// and the per-package errors come back joined as the error value. Callers
// therefore must consume the diagnostics even when err != nil — one broken
// package must not hide the findings in ninety-nine healthy ones.
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
	fset := token.NewFileSet()
	imp := newExportImporter(fset, dir)
	imp.seed(listed)

	var targets []listedPackage
	for _, p := range listed {
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	workers := r.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu    sync.Mutex
		diags []Diagnostic
		errs  []error
		wg    sync.WaitGroup
	)
	jobs := make(chan listedPackage)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				ds, err := checkPackage(fset, imp, p, analyzers)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				}
				diags = append(diags, ds...)
				mu.Unlock()
			}
		}()
	}
	for _, p := range targets {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	if len(moduleAnalyzers) > 0 {
		want := make(map[string]bool, len(targets))
		for _, p := range targets {
			want[p.ImportPath] = true
		}
		pkgs, err := loadModule(fset, imp, dir, want)
		if err != nil {
			errs = append(errs, err)
		} else {
			diags = append(diags, analyzeModule(fset, pkgs, moduleAnalyzers)...)
		}
	}
	SortDiagnostics(diags)
	// Workers finish in scheduler order; sort the errors so the joined
	// message is as deterministic as the diagnostics.
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return diags, errors.Join(errs...)
}

// checkPackage parses and type-checks one package from source, then runs
// the analyzers over it.
func checkPackage(fset *token.FileSet, imp types.Importer, p listedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	files, err := parseFiles(fset, p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", p.ImportPath, err)
	}
	return analyze(fset, files, pkg, info, analyzers), nil
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
