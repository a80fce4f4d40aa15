// Package hotalloc enforces the allocation discipline of functions marked
// with the `//cbma:hotpath` doc directive — the per-round stage pipeline,
// the dsp correlation kernels and the tag waveform synthesis, which run for
// every collision round of every sweep point. Inside a hot function the
// analyzer flags, intraprocedurally:
//
//   - make calls and appends, unless capacity-guarded (inside an
//     `if cap(…) < n` block — the grow-on-demand Into convention) or on a
//     cold path (an if-block that returns, i.e. an error exit);
//   - function literals (closure environments allocate);
//   - implicit conversions of concrete values to interface parameters or
//     variables (the boxed value escapes), again excluding cold paths;
//   - random-generator construction (math/rand New/NewSource and the
//     math/rand/v2 constructors): a fresh lagged-Fibonacci source is ~5 KB,
//     so a per-round stream must re-seed a reused generator instead. Only
//     nil-guarded lazy initialization (`if g == nil { g = … }`, the nil
//     test on the very slot being assigned) is exempt — it runs once per
//     reused slot.
//
// Allocation moved behind a call into an unannotated helper is out of the
// analyzer's intraprocedural scope by design: the convention is that hot
// bodies stay visibly allocation-free and cold helpers are explicit,
// reviewable exceptions.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"cbma/internal/analysis/framework"
)

// Analyzer is the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid per-call allocation in //cbma:hotpath functions (use the grow-guarded Into convention)",
	Run:  run,
}

// Directive marks a function as a hot path.
const Directive = "cbma:hotpath"

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !framework.HasDirective(fd.Doc, Directive) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// checkHotFunc walks the body keeping the enclosing-node path so each
// finding can consult its ancestors for capacity guards and cold exits.
func checkHotFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	var path []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		path = append(path, n)
		defer func() { path = path[:len(path)-1] }()

		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path allocates its environment; hoist it or pass state explicitly")
			// Do not descend: the closure body executes elsewhere.
			return
		case *ast.CallExpr:
			checkHotCall(pass, n, path)
		case *ast.AssignStmt:
			checkInterfaceAssign(pass, n, path)
		}
		children(n, walk)
	}
	walk(fd.Body)
}

// children visits the direct child nodes of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

func checkHotCall(pass *framework.Pass, call *ast.CallExpr, path []ast.Node) {
	if name, ok := randConstructor(pass, call); ok && !nilGuarded(path) {
		pass.Reportf(call.Pos(),
			"%s in hot path builds a new random generator per call: re-seed a reused one, or initialize lazily behind `if g == nil`", name)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				if !capGuarded(pass, path) && !coldPath(path) {
					pass.Reportf(call.Pos(),
						"%s in hot path: reuse caller scratch, or guard growth with `if cap(…) < n` (Into convention)", b.Name())
				}
			case "append":
				if !capGuarded(pass, path) && !coldPath(path) {
					pass.Reportf(call.Pos(),
						"append in hot path grows per call: accumulate into capacity-guarded scratch instead")
				}
			}
			return
		}
	}
	if coldPath(path) {
		return
	}
	checkInterfaceArgs(pass, call)
}

// checkInterfaceArgs flags concrete arguments passed to interface
// parameters: the conversion boxes the value, which escapes to the heap.
func checkInterfaceArgs(pass *framework.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // forwarding an existing slice; no per-element boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type.Underlying()) || isNil(at.Type) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"concrete %s converted to interface %s in hot path: the boxed value allocates",
			at.Type, pt)
	}
}

// checkInterfaceAssign flags assignments of concrete values into
// interface-typed destinations.
func checkInterfaceAssign(pass *framework.Pass, as *ast.AssignStmt, path []ast.Node) {
	if coldPath(path) {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return // tuple assignment: conversions happen at the call, not here
	}
	for i, lhs := range as.Lhs {
		lt, ok := pass.TypesInfo.Types[lhs]
		if !ok || lt.Type == nil || !types.IsInterface(lt.Type.Underlying()) {
			continue
		}
		rt, ok := pass.TypesInfo.Types[as.Rhs[i]]
		if !ok || rt.Type == nil {
			continue
		}
		if types.IsInterface(rt.Type.Underlying()) || isNil(rt.Type) {
			continue
		}
		pass.Reportf(as.Rhs[i].Pos(),
			"concrete %s stored into interface %s in hot path: the boxed value allocates",
			rt.Type, lt.Type)
	}
}

func isNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// randConstructors are the generator constructors of the standard random
// packages, by import path.
var randConstructors = map[string]map[string]bool{
	"math/rand":    {"New": true, "NewSource": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true},
}

// randConstructor reports whether call constructs a random generator, and
// its qualified name.
func randConstructor(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if !randConstructors[fn.Pkg().Path()][fn.Name()] {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

// nilGuarded reports whether the constructor at the end of the node path
// is the lazy initialization shape `if g == nil { g = … }`: its result is
// assigned (not declared) to an expression that an enclosing if-statement
// compares against nil, so it constructs once per slot and then reuses. A
// nil test of anything else (`if err == nil`) guards nothing.
func nilGuarded(path []ast.Node) bool {
	ai := -1
	for i := len(path) - 2; i >= 0; i-- {
		if _, ok := path[i].(*ast.AssignStmt); ok {
			ai = i
			break
		}
	}
	if ai < 0 {
		return false
	}
	as := path[ai].(*ast.AssignStmt)
	if as.Tok != token.ASSIGN {
		return false
	}
	for i := ai - 1; i >= 0; i-- {
		ifs, ok := path[i].(*ast.IfStmt)
		if !ok || path[i+1] != ifs.Body {
			continue
		}
		for _, lhs := range as.Lhs {
			if comparesNil(ifs.Cond, lhs) {
				return true
			}
		}
	}
	return false
}

// comparesNil reports whether cond contains `x == nil` (or `nil == x`) for
// an x written exactly like target.
func comparesNil(cond ast.Expr, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return !found
		}
		switch {
		case isNilIdent(be.Y) && types.ExprString(be.X) == want,
			isNilIdent(be.X) && types.ExprString(be.Y) == want:
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// capGuarded reports whether the node path runs through an if-statement
// whose condition consults cap(…) — the grow-on-demand idiom
// `if cap(dst) < n { dst = make(…) }`, which amortizes to zero allocations
// in steady state.
func capGuarded(pass *framework.Pass, path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		ifs, ok := path[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		usesCap := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "cap" {
						usesCap = true
						return false
					}
				}
			}
			return true
		})
		if usesCap {
			return true
		}
	}
	return false
}

// coldPath reports whether the node path runs through an if-statement whose
// taken block returns — the early-exit (error) shape. Allocations on such
// branches (wrapping an error, snapshotting failure context) happen at most
// once per failing call and are not steady-state garbage.
func coldPath(path []ast.Node) bool {
	for i := len(path) - 1; i > 0; i-- {
		block, ok := path[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		if _, ok := path[i-1].(*ast.IfStmt); !ok {
			continue
		}
		returns := false
		ast.Inspect(block, func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns = true
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return true
		})
		if returns {
			return true
		}
	}
	return false
}
