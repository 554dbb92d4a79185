package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noallocDirective marks a function as an allocation-free contract:
//
//	//pelsvet:noalloc
//	func AppendDatagram(dst []byte, ...) ([]byte, error)
//
// The directive goes in the function's doc comment.
const noallocDirective = "//pelsvet:noalloc"

// NoAlloc statically rejects allocating constructs inside functions
// annotated //pelsvet:noalloc — the hot-path zero-allocation contract
// that the testing.AllocsPerRun tests beside each hot path otherwise only
// check dynamically.
//
// Flagged constructs: make/new, slice and map literals, &composite
// literals, function literals (closures), string concatenation,
// string<->[]byte/[]rune conversions, fmt package calls, append to a
// slice with no preallocated capacity (fresh nil/empty local), interface
// boxing of concrete non-pointer values at call sites, and method-value
// expressions.
//
// Error bail-out paths are exempt: statements inside an if-block or
// switch-case that ends in return or panic are cold paths by
// construction (the benchmarked hot path never takes them), so
// fmt.Errorf in a validation branch does not violate the contract.
//
// The check is intraprocedural: callees are trusted (annotate them too
// if they are on the hot path). See DESIGN.md §14 for the full grammar
// and the known false-negative list.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "reject allocating constructs (closures, boxing, make/new, literals, " +
		"conversions, fmt, unpreallocated append) inside //pelsvet:noalloc " +
		"functions, excluding error bail-out paths",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoAllocDirective(fd.Doc) {
				continue
			}
			checkNoAlloc(pass, fd)
		}
	}
}

func hasNoAllocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == noallocDirective || strings.HasPrefix(text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

// posRange is a half-open source span used to mark bail-out blocks.
type posRange struct{ lo, hi token.Pos }

// bailoutRanges collects the spans of if-blocks, else-blocks, and
// switch/select cases whose last statement is a return or panic: cold
// error paths where allocation is acceptable.
func bailoutRanges(body *ast.BlockStmt) []posRange {
	var ranges []posRange
	mark := func(pos, end token.Pos, stmts []ast.Stmt) {
		if len(stmts) == 0 {
			return
		}
		if isBailout(stmts[len(stmts)-1]) {
			ranges = append(ranges, posRange{pos, end})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			mark(n.Body.Pos(), n.Body.End(), n.Body.List)
			if blk, ok := n.Else.(*ast.BlockStmt); ok {
				mark(blk.Pos(), blk.End(), blk.List)
			}
		case *ast.CaseClause:
			mark(n.Pos(), n.End(), n.Body)
		case *ast.CommClause:
			mark(n.Pos(), n.End(), n.Body)
		}
		return true
	})
	return ranges
}

// isBailout reports whether s terminates the enclosing function
// (return or panic).
func isBailout(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func checkNoAlloc(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	bailouts := bailoutRanges(fd.Body)
	inBailout := func(pos token.Pos) bool {
		for _, r := range bailouts {
			if r.lo <= pos && pos < r.hi {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if inBailout(pos) {
			return
		}
		args = append(args, name)
		pass.Reportf(pos, format+" in noalloc function %s", args...)
	}

	// Locals that are fresh nil/empty slices: append to them grows from
	// zero capacity, allocating on the hot path.
	freshSlices := collectFreshSlices(fd.Body)
	// Fun expressions of calls: a method selector used as call.Fun is a
	// plain call, not an allocating method value.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[call.Fun] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal (closure) allocates")
			return false // its body is already off-contract

		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal may escape to the heap")
				}
			}
			return true

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.Info.TypeOf(n.X)) {
				report(n.Pos(), "string concatenation allocates")
			}
			return true

		case *ast.SelectorExpr:
			if callFuns[n] {
				return true
			}
			if fn, ok := pass.Info.Uses[n.Sel].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					report(n.Pos(), "method value %s.%s allocates", types.ExprString(n.X), n.Sel.Name)
				}
			}
			return true

		case *ast.CallExpr:
			checkNoAllocCall(pass, n, freshSlices, report)
			return true
		}
		return true
	})
}

func checkNoAllocCall(pass *Pass, call *ast.CallExpr, freshSlices map[string]bool, report func(token.Pos, string, ...any)) {
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			report(call.Pos(), "make allocates")
			return
		case "new":
			report(call.Pos(), "new allocates")
			return
		case "append":
			if len(call.Args) > 0 {
				if base, ok := call.Args[0].(*ast.Ident); ok && freshSlices[base.Name] {
					report(call.Pos(), "append to %s, a slice with no preallocated capacity, allocates", base.Name)
				}
				if _, ok := call.Args[0].(*ast.CompositeLit); ok {
					report(call.Pos(), "append to a fresh slice literal allocates")
				}
			}
			return
		}
	}

	// Conversions: T(x). Flag the allocating string/byte/rune family and
	// conversions to interface types (boxing).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.Info.TypeOf(call.Args[0])
		switch {
		case types.IsInterface(dst.Underlying()):
			if src != nil && !types.IsInterface(src.Underlying()) {
				report(call.Pos(), "conversion boxes %s into interface %s", src, dst)
			}
		case isStringType(dst) && src != nil && !isStringType(src):
			report(call.Pos(), "conversion to string allocates")
		case isByteOrRuneSlice(dst) && isStringType(src):
			report(call.Pos(), "string-to-slice conversion allocates")
		}
		return
	}

	// fmt calls allocate (interface boxing plus internal buffers).
	if se, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := se.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s allocates", se.Sel.Name)
				return
			}
		}
	}

	// Interface boxing at ordinary call sites: passing a concrete
	// non-pointer-shaped value where the parameter is an interface.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pass.Info.TypeOf(arg)
		if pt == nil || at == nil {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) && !pointerShaped(at) {
			report(arg.Pos(), "argument boxes %s into interface %s", at, pt)
		}
	}
}

// collectFreshSlices finds locals declared as nil or empty slices
// (`var x []T`, `x := []T{}`) — appending to them always grows from zero
// capacity.
func collectFreshSlices(body *ast.BlockStmt) map[string]bool {
	fresh := make(map[string]bool)
	emptySliceLit := func(e ast.Expr) bool {
		cl, ok := e.(*ast.CompositeLit)
		if !ok || len(cl.Elts) != 0 {
			return false
		}
		_, isArr := cl.Type.(*ast.ArrayType)
		return isArr
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			if n.Tok != token.VAR {
				return true
			}
			for _, sp := range n.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				_, isSliceType := vs.Type.(*ast.ArrayType)
				for i, id := range vs.Names {
					switch {
					case len(vs.Values) == 0 && isSliceType:
						fresh[id.Name] = true
					case i < len(vs.Values) && emptySliceLit(vs.Values[i]):
						fresh[id.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && emptySliceLit(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						fresh[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit in an interface word
// without heap allocation (pointers, channels, maps, funcs, unsafe
// pointers).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}
