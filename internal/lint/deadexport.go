package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport flags an identifier declared in a non-test file under
// internal/ when nothing but _test.go files references it: a package-level
// func, var, const or type, or a method, exported or not, and an
// unexported field of a named struct type. A field is dead too when every
// reference writes it (=, op=, ++/--, a composite-literal key): a counter
// nobody reads. References come from every package of the module, and
// from every file of the modules nested in it (the benchmark harness,
// tests included), whatever packages the run was asked about. A method is
// also live when its type implements an interface that code uses, or one
// that the standard library looks for at run time (fmt.Stringer,
// json.Marshaler, …): such calls never name the method. A field is live
// when its struct is compared with ==, used as a map key, or handed whole
// to fmt, encoding/… or reflect, which read every field without naming
// one. What tests alone need belongs in the tests; what must stay for them
// (a paper-equation oracle, a test-clock seam) takes a
// //pelsvet:allow deadexport comment saying which. An allow on a type's
// declaration covers its methods and fields too.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "flag an identifier, method or unexported field under internal/ " +
		"that only _test.go files use, or a field nothing reads (the whole " +
		"module and its nested modules count as references; interface " +
		"methods in use are live); delete or unexport it, or justify with " +
		"//pelsvet:allow deadexport",
	RunModule: runDeadExport,
}

func runDeadExport(pass *ModulePass) {
	used := make(map[types.Object]bool)
	read := make(map[types.Object]bool)
	whole := make(map[*types.TypeName]bool)
	for _, p := range pass.Packages {
		writes := fieldWrites(p)
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			used[obj] = true
			if !writes[id] {
				read[obj] = true
			}
		}
		markWholeStructs(p, whole)
	}
	live := liveByInterface(pass)
	for _, p := range pass.Packages {
		if !p.Target || !isInternal(p.Pkg.Path()) {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || used[obj] || obj.Name() == "_" || obj.Name() == "init" {
				continue
			}
			name := obj.Name()
			switch o := obj.(type) {
			case *types.Func:
				recv := o.Type().(*types.Signature).Recv()
				if recv == nil {
					break
				}
				if types.IsInterface(recv.Type()) {
					continue
				}
				tn := recvObj(recv.Type())
				if live[o] || pass.allowed(tn.Pos()) {
					continue
				}
				name = tn.Name() + "." + name
			case *types.TypeName, *types.Const, *types.Var:
				if obj.Parent() != p.Pkg.Scope() {
					continue // a field, local or parameter
				}
			default:
				continue
			}
			if obj.Exported() {
				pass.Reportf(id.Pos(), "%s is exported but only tests use it; delete or unexport it", name)
			} else {
				pass.Reportf(id.Pos(), "%s is unexported and only tests use it; delete it", name)
			}
		}
		scope := p.Pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || whole[tn] || pass.allowed(tn.Pos()) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case f.Exported() || f.Embedded() || f.Name() == "_" || read[f]:
				case used[f]:
					pass.Reportf(f.Pos(), "%s.%s is written but never read; delete it", n, f.Name())
				default:
					pass.Reportf(f.Pos(), "%s.%s is unexported and only tests use it; delete it", n, f.Name())
				}
			}
		}
	}
}

// fieldWrites returns the identifiers in p that name a struct field being
// written and not read: the field selected on the left of = or op=, the
// operand of ++ or --, and the key of a composite literal (a map literal's
// key is never a field). A field on the way to the written one (b in
// a.b.c = x) is read.
func fieldWrites(p *ModulePackage) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	target := func(e ast.Expr) {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				writes[sel.Sel] = true
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					writes[key] = true
				}
			}
			return true
		})
	}
	return writes
}

// markWholeStructs marks the named struct types whose every field p reads
// without naming it: operands of == and !=, map keys, and arguments of a
// call into fmt, encoding/… or reflect (through one pointer). The struct
// types of their fields, held by value, are read the same way.
func markWholeStructs(p *ModulePackage, whole map[*types.TypeName]bool) {
	var mark func(types.Type)
	mark = func(t types.Type) {
		if t == nil {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if n, ok := t.(*types.Named); ok {
				tn := n.Origin().Obj()
				if whole[tn] {
					return
				}
				whole[tn] = true
			}
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i).Type())
			}
		case *types.Array:
			mark(u.Elem())
		}
	}
	for _, tv := range p.Info.Types {
		if tv.Type == nil {
			continue
		}
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			mark(m.Key())
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					mark(p.Info.TypeOf(n.X))
					mark(p.Info.TypeOf(n.Y))
				}
			case *ast.CallExpr:
				if !readsWhole(p.Info, n.Fun) {
					break
				}
				for _, arg := range n.Args {
					t := p.Info.TypeOf(arg)
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					mark(t)
				}
			}
			return true
		})
	}
}

// readsWhole reports whether a call is into fmt, encoding/… or reflect,
// which read a struct's fields by reflection.
func readsWhole(info *types.Info, fun ast.Expr) bool {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "fmt" || path == "reflect" || strings.HasPrefix(path, "encoding/")
}

// runtimeInterfaces names the standard-library interfaces that a package
// looks for with a type assertion at run time: fmt's verbs call String,
// encoding/json calls MarshalJSON. Code that relies on them never names
// the interface.
var runtimeInterfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

// liveByInterface returns the methods that implement an interface in use:
// one that is the type of some expression or type expression in the
// module tree, or one of runtimeInterfaces in a package it imports.
func liveByInterface(pass *ModulePass) map[*types.Func]bool {
	var ifaces []*types.Interface
	names := make(map[string]bool)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		ifaces = append(ifaces, it)
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
	imported := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if imported[pkg] {
			return
		}
		imported[pkg] = true
		for _, name := range runtimeInterfaces[pkg.Path()] {
			if obj := pkg.Scope().Lookup(name); obj != nil {
				add(obj.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, p := range pass.Packages {
		walk(p.Pkg)
		for _, tv := range p.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}

	live := make(map[*types.Func]bool)
	for _, p := range pass.Packages {
		scope := p.Pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if named.TypeParams().Len() > 0 {
				// A generic type's method set is only known per
				// instantiation: keep every method an interface could call.
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); names[m.Name()] {
						live[m] = true
					}
				}
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						live[fn.Origin()] = true
					}
				}
			}
		}
	}
	return live
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvObj returns the declared type of a method receiver.
func recvObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}
