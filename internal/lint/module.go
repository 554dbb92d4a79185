package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A ModulePass carries every package of a module tree through one
// whole-module analyzer (an Analyzer with RunModule set). Whether an
// exported identifier is dead, or a configuration field is ever set, is a
// question about every package at once, so these analyzers cannot run one
// package at a time.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Packages holds the non-test files of every package of the root
	// module, and every file, tests included, of each module nested in its
	// directory tree. All of them were type-checked from source through one
	// importer, so an object has one identity across packages.
	Packages []*ModulePackage

	diags  *[]Diagnostic
	allows allowSet
}

// A ModulePackage is one type-checked package of a ModulePass.
type ModulePackage struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Target marks the packages the run was asked about: findings are
	// reported only in them, while every package counts as a reference.
	Target bool
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowed reports whether a //pelsvet:allow comment naming the analyzer
// covers pos, as it would a diagnostic there.
func (p *ModulePass) allowed(pos token.Pos) bool {
	return p.allows.suppressed(Diagnostic{Analyzer: p.Analyzer.Name, Pos: p.Fset.Position(pos)})
}

// analyzeModule runs the whole-module analyzers over pkgs and returns the
// diagnostics that no //pelsvet:allow comment in a target package
// suppresses. Malformed directives are left to the per-package stage,
// which reports them once.
func analyzeModule(fset *token.FileSet, pkgs []*ModulePackage, analyzers []*Analyzer) []Diagnostic {
	var files []*ast.File
	for _, p := range pkgs {
		if p.Target {
			files = append(files, p.Files...)
		}
	}
	allows, _ := collectAllows(fset, files)
	var raw []Diagnostic
	for _, a := range analyzers {
		a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Packages: pkgs, diags: &raw, allows: allows})
	}
	var kept []Diagnostic
	for _, d := range raw {
		if !allows.suppressed(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// sourceImporter resolves the module's own packages to the ones already
// type-checked from source, and everything else through export data.
type sourceImporter struct {
	pkgs     map[string]*types.Package
	fallback types.Importer
}

// Import implements types.Importer.
func (s *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	return s.fallback.Import(path)
}

// loadModule type-checks, from source and once each, every package of the
// module that contains dir, and of each module nested in its directory
// tree (the benchmark harness is one). Packages whose import path is in
// targets are marked Target; a target outside those modules is an error.
// A package that does not parse or type-check is left out, and so is every
// package that imports it; the others come back with the joined load
// errors.
func loadModule(fset *token.FileSet, imp *exportImporter, dir string, targets []string) ([]*ModulePackage, error) {
	root, err := moduleDir(dir)
	if err != nil {
		return nil, err
	}
	dirs := []string{root}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	src := &sourceImporter{pkgs: make(map[string]*types.Package), fallback: imp}
	want := make(map[string]bool, len(targets))
	for _, t := range targets {
		want[t] = true
	}
	inModule := make(map[string]bool)
	var out []*ModulePackage
	var errs []error
	check := func(path string, pkgDir string, names []string) *types.Package {
		files, err := parseFiles(fset, pkgDir, names)
		if err != nil {
			errs = append(errs, err)
			return nil
		}
		info := newInfo()
		pkg, err := (&types.Config{Importer: src}).Check(path, fset, files, info)
		if err != nil {
			errs = append(errs, fmt.Errorf("lint: typecheck %s: %v", path, err))
			return nil
		}
		out = append(out, &ModulePackage{Files: files, Pkg: pkg, Info: info, Target: want[path]})
		return pkg
	}
	for i, d := range dirs {
		nested := i > 0
		listed, err := goList(d, []string{"./..."})
		if err != nil {
			return nil, err
		}
		imp.seed(listed)
		// go list -deps prints dependencies before their importers, so
		// every module import resolves to a package checked from source.
		for _, p := range listed {
			if p.DepOnly || src.pkgs[p.ImportPath] != nil {
				continue
			}
			inModule[p.ImportPath] = true
			names := p.GoFiles
			if nested {
				names = append(append([]string(nil), names...), p.TestGoFiles...)
			}
			if len(names) > 0 {
				if pkg := check(p.ImportPath, p.Dir, names); pkg != nil {
					src.pkgs[p.ImportPath] = pkg
				}
			}
			if nested && len(p.XTestGoFiles) > 0 {
				check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles)
			}
		}
	}
	for _, t := range targets {
		if !inModule[t] {
			errs = append(errs, fmt.Errorf("lint: %s is not in the module", t))
		}
	}
	return out, errors.Join(errs...)
}

// moduleDir returns the root directory of the main module containing dir.
func moduleDir(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// isInternal reports whether an import path lies under an internal/
// directory, which is where the whole-module analyzers look for findings.
func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
