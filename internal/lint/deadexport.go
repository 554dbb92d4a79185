package lint

import "go/types"

// DeadExport flags an exported package-level identifier, or an exported
// method, declared in a non-test file under internal/ when nothing but
// _test.go files references it. References come from every package of the
// module, and from every file of the modules nested in it (the benchmark
// harness, tests included), whatever packages the run was asked about. A
// method is also live when its type implements an interface that code
// uses, or one that the standard library looks for at run time
// (fmt.Stringer, json.Marshaler, …): such calls never name the method.
// What tests alone need belongs in the tests; what must stay for them (a
// paper-equation oracle, a test-clock seam) takes a
// //pelsvet:allow deadexport comment saying which.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "flag an exported identifier or method under internal/ that only " +
		"_test.go files use (the whole module and its nested modules count " +
		"as references; interface methods in use are live); delete or " +
		"unexport it, or justify with //pelsvet:allow deadexport",
	RunModule: runDeadExport,
}

func runDeadExport(pass *ModulePass) {
	used := make(map[types.Object]bool)
	for _, p := range pass.Packages {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
	}
	live := liveByInterface(pass)
	for _, p := range pass.Packages {
		if !p.Target || !isInternal(p.Pkg.Path()) {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			name := obj.Name()
			switch o := obj.(type) {
			case *types.Func:
				recv := o.Type().(*types.Signature).Recv()
				if recv == nil {
					break
				}
				if types.IsInterface(recv.Type()) || live[o] {
					continue
				}
				name = recvName(recv.Type()) + "." + name
			case *types.TypeName, *types.Const, *types.Var:
				if obj.Parent() != p.Pkg.Scope() {
					continue // a field, local or parameter
				}
			default:
				continue
			}
			pass.Reportf(id.Pos(), "%s is exported but only tests use it; delete or unexport it", name)
		}
	}
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

// recvName returns the type name of a method receiver, without the pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
