// Package ctxflow enforces context-propagation discipline: cancellation
// must flow from the daemon's shutdown path through every layer down to the
// engine, with no gaps where a fresh root context silently detaches a
// subtree from its caller's lifetime.
//
// Three rules over the sim/service scope:
//
//  1. No context.Background()/context.TODO() calls outside package main and
//     test files. Legitimate roots — public non-context convenience
//     entrypoints, a daemon-lifetime base context — carry a reviewed
//     `//cbma:allow ctxflow <reason>` waiver, which is exactly the audit
//     trail the rule exists to produce.
//  2. A function that accepts a context.Context must thread it: calling a
//     blocking sibling `X()` when `XContext(ctx, ...)` exists on the same
//     receiver or in the same package drops the caller's cancellation on
//     the floor and is reported.
//  3. No context.Context stored in a struct field (contexts are call-scoped
//     by contract; a stored one outlives its request unnoticed). The
//     audited seams — the batcher's and the daemon's lifetime contexts —
//     carry waivers.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"cbma/internal/analysis/framework"
)

// Analyzer is the ctxflow check.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context must thread through, not restart at Background/TODO or hide in struct fields",
	Run:  run,
}

// scope covers every layer cancellation flows through: engine, campaign,
// telemetry, service, batcher, daemon. Packages outside the cbma module
// (fixtures) are always in scope.
var scope = []string{
	"cbma/internal/sim",
	"cbma/internal/core",
	"cbma/internal/obs",
	"cbma/internal/serve",
	"cbma/cmd/cbmad",
}

func inScope(path string) bool {
	if !strings.HasPrefix(path, "cbma") {
		return true // analyzer fixtures
	}
	for _, p := range scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isMain {
					checkRootCall(pass, n)
				}
			case *ast.FuncDecl:
				if ctxParam(pass, n) != nil {
					checkThreading(pass, n)
				}
			case *ast.StructType:
				checkStoredContext(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkRootCall flags context.Background()/TODO() outside main.
func checkRootCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	switch fn.FullName() {
	case "context.Background", "context.TODO":
		pass.Reportf(call.Pos(),
			"context.%s() starts a fresh root outside main: thread the caller's ctx, or waive the root with //cbma:allow ctxflow <reason>",
			fn.Name())
	}
}

// ctxParam returns the declared context.Context parameter identifier, if
// the function takes one.
func ctxParam(pass *framework.Pass, fd *ast.FuncDecl) *ast.Ident {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && isContextType(t) {
			if len(field.Names) > 0 {
				return field.Names[0]
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkThreading reports calls to X() inside a ctx-carrying function when a
// sibling XContext exists: the ctx-less variant discards cancellation.
func checkThreading(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || strings.HasSuffix(fn.Name(), "Context") {
			return true
		}
		// Does the callee already take a ctx? Then threading is the callee's
		// argument, checked by rule 1 at any Background() passed in.
		if sig, ok := fn.Type().(*types.Signature); ok && sigTakesContext(sig) {
			return true
		}
		if sibling := contextSibling(fn); sibling != "" {
			pass.Reportf(call.Pos(),
				"%s drops this function's ctx: call %s with it instead", fn.Name(), sibling)
		}
		return true
	})
}

func sigTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	return params != nil && params.Len() > 0 && isContextType(params.At(0).Type())
}

// contextSibling finds an XContext companion of fn — on the same receiver's
// method set for methods, in the declaring package's scope for functions —
// whose first parameter is a context.Context.
func contextSibling(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	want := fn.Name() + "Context"
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == want && sigTakesContext(m.Type().(*types.Signature)) {
				return want
			}
		}
		return ""
	}
	if fn.Pkg() == nil {
		return ""
	}
	if obj, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok {
		if sigTakesContext(obj.Type().(*types.Signature)) {
			return want
		}
	}
	return ""
}

// checkStoredContext flags context.Context struct fields.
func checkStoredContext(pass *framework.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && isContextType(t) {
			pass.Reportf(field.Pos(),
				"context.Context stored in a struct outlives its caller: pass it per call, or waive the audited seam with //cbma:allow ctxflow <reason>")
		}
	}
}
