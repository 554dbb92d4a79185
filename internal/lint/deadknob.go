package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadKnob flags an exported field of an exported …Config struct under
// internal/ that no code sets except its own package's Default…
// constructors and WithDefaults/withDefaults, or the code of that package
// that fills the zero fields of a …Config it was handed as a parameter. A
// field is set by a composite-literal key, an assignment or ++/-- through
// it, or by taking its address (flag.DurationVar(&cfg.X, …)). Writes count
// from the same files as deadexport's references. A knob nobody turns is a
// constant with extra steps: make it one, or a constructor parameter where
// the value varies per call, or justify it with //pelsvet:allow deadknob
// (a test-clock seam).
var DeadKnob = &Analyzer{
	Name: "deadknob",
	Doc: "flag an exported field of an exported …Config struct under " +
		"internal/ that only its package's Default… constructors and " +
		"WithDefaults set; make it a constant or a parameter, or justify " +
		"with //pelsvet:allow deadknob",
	RunModule: runDeadKnob,
}

func runDeadKnob(pass *ModulePass) {
	set := make(map[*types.Var]bool)
	for _, p := range pass.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				defaulter := fd != nil && isDefaulter(fd.Name.Name)
				params := configParams(p.Info, fd)
				mark := func(root types.Object, v *types.Var) {
					if v.Pkg() == p.Pkg && (defaulter || root != nil && params[root]) {
						return
					}
					set[v.Origin()] = true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						markLiteral(p.Info, n, mark)
					case *ast.AssignStmt:
						if n.Tok != token.DEFINE {
							for _, lhs := range n.Lhs {
								markTarget(p.Info, lhs, mark)
							}
						}
					case *ast.IncDecStmt:
						markTarget(p.Info, n.X, mark)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markTarget(p.Info, n.X, mark)
						}
					}
					return true
				})
			}
		}
	}
	for _, p := range pass.Packages {
		if !p.Target || !isInternal(p.Pkg.Path()) {
			continue
		}
		scope := p.Pkg.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(n, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					pass.Reportf(f.Pos(), "%s.%s is set only by defaults; make it a constant or a parameter", n, f.Name())
				}
			}
		}
	}
}

// configParams returns the parameters (receiver included) of fd whose
// type is a …Config struct or a pointer to one: writes through them fill
// in defaults, they do not turn a knob.
func configParams(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	if fd == nil {
		return nil
	}
	params := make(map[types.Object]bool)
	for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				t := obj.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if n, ok := t.(*types.Named); ok && strings.HasSuffix(n.Obj().Name(), "Config") {
					params[obj] = true
				}
			}
		}
	}
	return params
}

// isDefaulter reports whether a function of that name fills in defaults.
func isDefaulter(name string) bool {
	return strings.HasPrefix(name, "Default") || name == "WithDefaults" || name == "withDefaults"
}

// markLiteral marks the struct fields a composite literal sets: the keyed
// ones, or all of them when it lists values by position.
func markLiteral(info *types.Info, lit *ast.CompositeLit, mark func(types.Object, *types.Var)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		for i := 0; i < st.NumFields(); i++ {
			mark(nil, st.Field(i))
		}
		return
	}
	for _, elt := range lit.Elts {
		if key, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
			if v, ok := info.Uses[key].(*types.Var); ok {
				mark(nil, v)
			}
		}
	}
}

// markTarget marks every field selected on the way to an assigned (or
// address-taken) expression: a.B.C = x sets both B and C. It hands mark
// the variable at the root of the chain (a), or nil if there is none.
func markTarget(info *types.Info, e ast.Expr, mark func(types.Object, *types.Var)) {
	var fields []*types.Var
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				// A promoted field is set through every embedded field on
				// its path: c.MKC sets c.Config when Config embeds MKC.
				t := sel.Recv()
				for _, i := range sel.Index() {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					f := t.Underlying().(*types.Struct).Field(i)
					fields = append(fields, f)
					t = f.Type()
				}
			}
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		}
		break
	}
	var root types.Object
	if id, ok := e.(*ast.Ident); ok {
		root = info.Uses[id]
	}
	for _, f := range fields {
		mark(root, f)
	}
}
