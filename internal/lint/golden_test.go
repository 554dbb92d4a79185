package lint

// Golden-file harness for the analyzers, in the style of
// golang.org/x/tools/go/analysis/analysistest but built on the stdlib
// only. Each directory under testdata/src is one package; a comment
//
//	expr // want "regexp" "another regexp"
//
// asserts that each listed regexp matches exactly one diagnostic reported
// on that line, and the test fails on any unmatched want or unexpected
// diagnostic. Imports between testdata packages resolve against the
// testdata/src root (GOPATH-style), everything else against real export
// data via `go list -export`. As in a real run, _test.go files are not
// loaded: the whole-module analyzers must not count what only tests use.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testdataLoader type-checks packages rooted at testdata/src.
type testdataLoader struct {
	fset     *token.FileSet
	root     string
	fallback types.Importer
	cache    map[string]*loadedPkg
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

func newTestdataLoader(t *testing.T) *testdataLoader {
	t.Helper()
	fset := token.NewFileSet()
	return &testdataLoader{
		fset:     fset,
		root:     filepath.Join("testdata", "src"),
		fallback: newExportImporter(fset, "."),
		cache:    make(map[string]*loadedPkg),
	}
}

// load parses and type-checks the testdata package at importPath.
func (l *testdataLoader) load(importPath string) (*loadedPkg, error) {
	if p, ok := l.cache[importPath]; ok {
		return p, p.err
	}
	dir := filepath.Join(l.root, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{info: newInfo()}
	l.cache[importPath] = p
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		p.err = fmt.Errorf("no Go files in %s", dir)
		return p, p.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			p.err = err
			return p, p.err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.pkg, p.err = conf.Check(importPath, l.fset, p.files, p.info)
	return p, p.err
}

// Import implements types.Importer: testdata-local packages first, then
// real export data.
func (l *testdataLoader) Import(path string) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.fallback.Import(path)
}

// wantRE extracts the quoted regexps of a want comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantedDiag struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the files for `// want "..."` comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]map[int][]*wantedDiag {
	t.Helper()
	wants := make(map[string]map[int][]*wantedDiag)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimPrefix(c.Text, "//")
				body = strings.TrimSpace(body)
				if !strings.HasPrefix(body, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(body, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, m[1], err)
					}
					if wants[pos.Filename] == nil {
						wants[pos.Filename] = make(map[int][]*wantedDiag)
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &wantedDiag{re: re})
				}
			}
		}
	}
	return wants
}

// runGolden analyzes one testdata package with the given analyzers and
// checks the diagnostics against the package's want comments.
func runGolden(t *testing.T, loader *testdataLoader, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	p, err := loader.load(importPath)
	if err != nil {
		t.Fatalf("load %s: %v", importPath, err)
	}
	diags := analyze(loader.fset, p.files, p.pkg, p.info, analyzers)
	checkWants(t, diags, collectWants(t, loader.fset, p.files))
}

// runModuleGolden runs whole-module analyzers over the testdata packages at
// importPaths, all of them targets, and checks the diagnostics against the
// want comments in all of them.
func runModuleGolden(t *testing.T, loader *testdataLoader, analyzers []*Analyzer, importPaths ...string) {
	t.Helper()
	var pkgs []*ModulePackage
	var files []*ast.File
	for _, path := range importPaths {
		p, err := loader.load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, &ModulePackage{Files: p.files, Pkg: p.pkg, Info: p.info, Target: true})
		files = append(files, p.files...)
	}
	diags := analyzeModule(loader.fset, pkgs, analyzers)
	checkWants(t, diags, collectWants(t, loader.fset, files))
}

// checkWants matches each diagnostic to one want on its line and fails on
// an unexpected diagnostic or an unmatched want.
func checkWants(t *testing.T, diags []Diagnostic, wants map[string]map[int][]*wantedDiag) {
	t.Helper()
	for _, d := range diags {
		ws := wants[d.Pos.Filename][d.Pos.Line]
		found := false
		for _, w := range ws {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want %q", file, line, w.re)
				}
			}
		}
	}
}

func TestWallTimeGolden(t *testing.T) {
	loader := newTestdataLoader(t)
	runGolden(t, loader, "walltime/sim", WallTime)
	// Outside the deterministic set the same calls are legal.
	runGolden(t, loader, "walltime/wire", WallTime)
}

func TestSeededRandGolden(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "seededrand/app", SeededRand)
}

func TestFloatEqGolden(t *testing.T) {
	loader := newTestdataLoader(t)
	runGolden(t, loader, "floateq/cc", FloatEq)
	// Outside the control-loop set float equality is not flagged.
	runGolden(t, loader, "floateq/util", FloatEq)
}

func TestUnitMixGolden(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "unitmix/app", UnitMix)
}

// TestAllowGolden proves //pelsvet:allow suppresses a real diagnostic and
// that naming an unknown analyzer in a directive is itself reported.
func TestAllowGolden(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "allow/sim", WallTime)
}

// TestAllowSuppressesAll double-checks, independently of want comments,
// that the suppressed file yields no walltime diagnostics at all.
func TestAllowSuppressesAll(t *testing.T) {
	loader := newTestdataLoader(t)
	p, err := loader.load("allowclean/sim")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analyze(loader.fset, p.files, p.pkg, p.info, []*Analyzer{WallTime})
	if len(diags) != 0 {
		t.Fatalf("want 0 diagnostics after //pelsvet:allow, got %v", diags)
	}
}

func TestGuardedGolden(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "guarded/app", Guarded)
}

// TestGuardedBadDirectives proves a //pelsvet:guards directive naming a
// non-mutex sibling (or nothing) is reported and guards nothing. (These
// diagnostics anchor on the directive comments, which a same-line want
// comment cannot express.)
func TestGuardedBadDirectives(t *testing.T) {
	loader := newTestdataLoader(t)
	p, err := loader.load("guardedbad/app")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analyze(loader.fset, p.files, p.pkg, p.info, []*Analyzer{Guarded})
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	wantSub := []string{
		`pelsvet:guards names "nosuch", which is not a sync.Mutex/sync.RWMutex field of s`,
		"pelsvet:guards directive names no mutex field",
	}
	if len(diags) != len(wantSub) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(wantSub), len(got), got)
	}
	joined := strings.Join(got, "\n")
	for _, w := range wantSub {
		if !strings.Contains(joined, w) {
			t.Errorf("missing diagnostic %q in:\n%s", w, joined)
		}
	}
}

func TestNoAllocGolden(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "noalloc/app", NoAlloc)
}

// TestDeadExportGolden: an identifier only a _test.go file uses is
// flagged, and so is an unread constant or method; what another package
// uses, a method called through an interface, fmt's String and an allowed
// identifier are not.
func TestDeadExportGolden(t *testing.T) {
	runModuleGolden(t, newTestdataLoader(t), []*Analyzer{DeadExport}, "deadexport/internal/lib", "deadexport/app")
}

// TestDeadKnobGolden: a …Config field only Default… and WithDefaults set,
// or only its package's zero fill of a parameter, is flagged; a field a
// caller sets, an embedded config set through a promoted field, and an
// allowed test-clock seam are not.
func TestDeadKnobGolden(t *testing.T) {
	runModuleGolden(t, newTestdataLoader(t), []*Analyzer{DeadKnob}, "deadknob/internal/srv", "deadknob/app")
}

func TestGoExitGolden(t *testing.T) {
	loader := newTestdataLoader(t)
	runGolden(t, loader, "goexit/app", GoExit)
	// Package main is exempt: the same leak produces no diagnostics.
	runGolden(t, loader, "goexit/mainbin", GoExit)
}

// TestAllowNewAnalyzers proves //pelsvet:allow works with the guarded,
// noalloc, and goexit names: each control finding fires and its allowed
// twin stays silent. Allows naming deadexport and deadknob are known names
// too, not reported as unknown (their suppression is the module golden
// tests').
func TestAllowNewAnalyzers(t *testing.T) {
	runGolden(t, newTestdataLoader(t), "allownew/app", Guarded, NoAlloc, GoExit)
}

// TestAllowUnknownNewName proves a misspelled new-analyzer name in an
// allow directive is reported and suppresses nothing.
func TestAllowUnknownNewName(t *testing.T) {
	loader := newTestdataLoader(t)
	p, err := loader.load("allownewbad/app")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analyze(loader.fset, p.files, p.pkg, p.info, []*Analyzer{GoExit})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wantSub := []string{
		`pelsvet: pelsvet:allow names unknown analyzer "guared"`,
		"goexit: goroutine is not tied to a lifecycle",
	}
	if len(diags) != len(wantSub) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(wantSub), len(got), got)
	}
	joined := strings.Join(got, "\n")
	for _, w := range wantSub {
		if !strings.Contains(joined, w) {
			t.Errorf("missing diagnostic %q in:\n%s", w, joined)
		}
	}
}

// TestAllowBadDirectives proves a typo'd or empty directive suppresses
// nothing and is itself reported. (These diagnostics anchor on the
// directive comments, which a same-line want comment cannot express.)
func TestAllowBadDirectives(t *testing.T) {
	loader := newTestdataLoader(t)
	p, err := loader.load("allowbad/sim")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analyze(loader.fset, p.files, p.pkg, p.info, []*Analyzer{WallTime})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wantSub := []string{
		`pelsvet: pelsvet:allow names unknown analyzer "bogus"`,
		"pelsvet: pelsvet:allow directive names no analyzer",
		"walltime: time.Now reads the wall clock", // after the typo'd directive
		"walltime: time.Now reads the wall clock", // after the bare directive
	}
	if len(diags) != len(wantSub) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(wantSub), len(got), got)
	}
	joined := strings.Join(got, "\n")
	for _, w := range wantSub {
		if !strings.Contains(joined, w) {
			t.Errorf("missing diagnostic %q in:\n%s", w, joined)
		}
	}
}
