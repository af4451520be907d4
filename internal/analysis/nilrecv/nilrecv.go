// Package nilrecv proves the nil-receiver no-op contract. The
// observability and governance layers promise that their handles cost
// nothing when absent: a nil *obs.Collector is "tracing off", a nil
// *governor.Governor is "ungoverned", a nil *fault.Script is "no
// faults". The engine relies on this by calling methods on possibly-nil
// handles unconditionally — there is no `if gov != nil` at any call
// site — so a single method that dereferences its receiver before the
// nil guard turns every ungoverned evaluation into a panic, and only on
// the configuration (tracing off) that the test suite exercises least.
//
// For every exported pointer-receiver method on a contract type the
// analyzer requires one of: a leading `if recv == nil` guard (the
// leftmost operand of an || chain counts, so `if t == nil ||
// len(t.Roots) == 0` is a guard) before any receiver dereference, or a
// body that never dereferences the receiver at all — delegation-only
// methods, which forward recv to other nil-tolerant code, are the
// contract's base case.
package nilrecv

import (
	"go/ast"
	"go/token"
	"go/types"

	"relquery/internal/analysis/framework"
)

// contract lists the nil-receiver no-op types, keyed by package name
// then type name. Matching is by name so fixtures modeling the real
// packages exercise the same logic.
var contract = map[string]map[string]bool{
	"obs": {
		"Collector": true,
		"Metrics":   true,
		"Registry":  true,
		"Histogram": true,
		"Span":      true,
		"Trace":     true,
	},
	"governor":  {"Governor": true},
	"fault":     {"Script": true},
	"telemetry": {"Server": true},
}

var Analyzer = &framework.Analyzer{
	Name: "nilrecv",
	Doc:  "exported methods on nil-receiver no-op types must guard recv == nil before any receiver dereference",
	Run:  run,
}

func run(pass *framework.Pass) error {
	typeNames := contract[pass.Pkg.Name()]
	if typeNames == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			recv := receiverObj(pass, fd, typeNames)
			if recv == nil {
				continue
			}
			checkMethod(pass, fd, recv)
		}
	}
	return nil
}

// receiverObj returns the receiver variable when fd is a
// pointer-receiver method on a contract type (and the receiver is
// named — a blank receiver cannot be dereferenced), nil otherwise.
func receiverObj(pass *framework.Pass, fd *ast.FuncDecl, typeNames map[string]bool) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	obj, ok := pass.Info.Defs[name].(*types.Var)
	if !ok {
		return nil
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named := framework.NamedOf(ptr.Elem())
	if named == nil || !typeNames[named.Obj().Name()] {
		return nil
	}
	return obj
}

// checkMethod scans the method body's top-level statements in order: a
// nil guard ends the scan (everything after runs with recv proven
// non-nil), a receiver dereference before one is the finding.
func checkMethod(pass *framework.Pass, fd *ast.FuncDecl, recv *types.Var) {
	typeName := recv.Type().(*types.Pointer).Elem().(*types.Named).Obj().Name()
	for _, stmt := range fd.Body.List {
		if ifs, ok := stmt.(*ast.IfStmt); ok && ifs.Init == nil && isNilGuard(pass, ifs.Cond, recv) {
			return // guarded: if recv == nil [|| ...] { ... }
		}
		if bad := firstDeref(pass, stmt, recv); bad != nil {
			pass.Reportf(bad.Pos(),
				"(*%s).%s dereferences the receiver before the nil guard; the nil-receiver no-op contract requires `if %s == nil` first",
				typeName, fd.Name.Name, recv.Name())
			return
		}
	}
}

// isNilGuard reports whether cond's leftmost || operand is `recv == nil`.
// Later operands of the chain may dereference the receiver freely:
// short-circuit evaluation has already excluded the nil case when they run.
func isNilGuard(pass *framework.Pass, cond ast.Expr, recv *types.Var) bool {
	for {
		bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if bin.Op == token.LOR {
			cond = bin.X
			continue
		}
		if bin.Op != token.EQL {
			return false
		}
		x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
		return (isObj(pass, x, recv) && isNil(pass, y)) || (isNil(pass, x) && isObj(pass, y, recv))
	}
}

func isObj(pass *framework.Pass, e ast.Expr, obj *types.Var) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] == obj
}

func isNil(pass *framework.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilConst := pass.Info.Uses[id].(*types.Nil)
	return isNilConst
}

// firstDeref returns the first expression under n that dereferences
// recv: a field selection or an explicit *recv. Method calls on recv and
// passing it as an argument are delegation — the callee owns the nil
// check — and storing or comparing the pointer itself never touches the
// pointee.
func firstDeref(pass *framework.Pass, n ast.Node, recv *types.Var) ast.Node {
	var bad ast.Node
	ast.Inspect(n, func(x ast.Node) bool {
		if bad != nil {
			return false
		}
		switch y := x.(type) {
		case *ast.StarExpr:
			if isObj(pass, ast.Unparen(y.X), recv) {
				bad = y
				return false
			}
		case *ast.SelectorExpr:
			if !isObj(pass, ast.Unparen(y.X), recv) {
				return true
			}
			if sel, ok := pass.Info.Selections[y]; ok && sel.Kind() == types.FieldVal {
				bad = y
				return false
			}
		}
		return true
	})
	return bad
}
