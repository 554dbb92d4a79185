package lint

import (
	"go/ast"
	"go/types"
)

// GoExit flags `go` statements that spawn a goroutine with no visible
// lifecycle: nothing in the spawned function (or its arguments) ties it
// to a context.Context, a sync.WaitGroup, or a channel it can block on
// or be signalled through. Such goroutines cannot be shut down or waited
// for — they leak across Server.Shutdown and make test teardown racy.
//
// Lifecycle evidence, any of which clears a go statement:
//
//   - a value of type context.Context reachable in the arguments or the
//     spawned body,
//   - a sync.WaitGroup (or pointer to one) reachable the same way —
//     wg.Done in the body, or the wg passed as an argument,
//   - any channel operation in the body (send, receive, range, close,
//     select) or a channel-typed argument: the goroutine has a rendezvous
//     another part of the program controls.
//
// For `go x.method()` / `go fn()` where the callee is declared in the
// same package, the callee's body is scanned one level deep (no
// recursion), so the `go l.run()` idiom with `defer l.wg.Done()`
// inside the method passes. Cross-package callees with no lifecycle
// evidence in the arguments are flagged — hand them a ctx or channel at
// the spawn site.
//
// Packages named main are exempt: their goroutines die with the process
// by construction.
var GoExit = &Analyzer{
	Name: "goexit",
	Doc: "flag go statements whose goroutine has no lifecycle (no ctx, " +
		"WaitGroup, or channel reachable from the spawn) outside main packages",
	Run: runGoExit,
}

func runGoExit(pass *Pass) {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return
	}
	// Index same-package function and method bodies by their *types.Func
	// so `go x.method()` can be checked one level deep.
	bodies := make(map[*types.Func]*ast.BlockStmt)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd.Body
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goHasLifecycle(pass, g, bodies) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine is not tied to a lifecycle: no context, WaitGroup, or "+
					"channel reachable from the go statement (pass one in, or justify "+
					"with //pelsvet:allow goexit)")
			return true
		})
	}
}

func goHasLifecycle(pass *Pass, g *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt) bool {
	// Arguments at the spawn site: a ctx, WaitGroup, or channel handed to
	// the goroutine is a lifecycle regardless of what the body does.
	for _, arg := range g.Call.Args {
		if lifecycleType(pass.Info.TypeOf(arg)) {
			return true
		}
	}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return lifecycleInBody(pass, fun.Body)
	default:
		// Named callee: scan its body one level deep when it lives in
		// this package.
		var obj types.Object
		switch fun := fun.(type) {
		case *ast.Ident:
			obj = pass.Info.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.Info.Uses[fun.Sel]
		}
		if fn, ok := obj.(*types.Func); ok {
			if body, ok := bodies[fn]; ok {
				return lifecycleInBody(pass, body)
			}
		}
	}
	return false
}

// lifecycleInBody scans one function body (including nested literals —
// a lifecycle wired through an inner closure still bounds the goroutine)
// for lifecycle evidence.
func lifecycleInBody(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			if lifecycleType(pass.Info.TypeOf(n)) {
				found = true
			}
		case *ast.SelectorExpr:
			if lifecycleType(pass.Info.TypeOf(n)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lifecycleType reports whether t is a context.Context, sync.WaitGroup
// (or pointer to one), or a channel.
func lifecycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.String() {
	case "context.Context", "sync.WaitGroup":
		return true
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
