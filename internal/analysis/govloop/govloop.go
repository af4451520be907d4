// Package govloop checks that tuple loops in the evaluation engine stay
// under governance. The resource governor's contract (DESIGN.md,
// "Resource governance") is that every loop whose trip count scales
// with relation cardinality polls the governor — Tick amortizes the
// poll to one atomic load per CheckEvery iterations — so cancellation
// latency and budget overshoot stay bounded by one batch. A
// cardinality-scaled loop with no reachable governor call reintroduces
// exactly the unbounded work the governor exists to bound, and no test
// catches it until a production query hangs past its deadline.
//
// The analyzer flags loops over tuple collections inside the engine
// packages when the enclosing function has a governor in scope but the
// loop body cannot reach a governor method: directly, through
// same-package helpers, or by delegating the governor itself into a
// callee. Four shapes count as such a loop: a range over a slice of
// relation.Tuple; a Relation.Each callback, whose body is a loop body in
// all but syntax; a counted loop over a relation's rows — bounded by
// Relation.Len() or reading Relation.Tuple(i) at its own index variable,
// the shape of a count-first probe pass; and an index-chain loop, whose
// post statement advances a variable through a call on itself (for i :=
// table.first(…); i >= 0; i = table.after(i)) — the hash join's bucket
// walk, as long as the build side under key skew. Loops that are
// genuinely cardinality-bounded can be annotated
// `//lint:ungoverned <reason>` — the reason is required, so the waiver
// documents itself.
package govloop

import (
	"go/ast"
	"go/types"
	"strings"

	"relquery/internal/analysis/framework"
)

// enginePkgs are the package names govloop polices: the packages whose
// loops run once per tuple of user-controlled relations.
var enginePkgs = map[string]bool{
	"join":    true,
	"algebra": true,
	"decide":  true,
}

// governorMethods are the *governor.Governor methods that count as a
// governance poll or charge.
var governorMethods = map[string]bool{
	"Tick":        true,
	"Check":       true,
	"CheckRows":   true,
	"CheckOutput": true,
	"ChargeBytes": true,
	"Admit":       true,
	"Fail":        true,
}

var Analyzer = &framework.Analyzer{
	Name: "govloop",
	Doc:  "tuple loops in engine packages must reach a governor Tick/Check or carry a //lint:ungoverned reason",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !enginePkgs[pass.Pkg.Name()] {
		return nil
	}
	reach := framework.NewReachability(pass, isGovernorMethod)
	for _, file := range pass.Files {
		// A test that compares two results row by row under a zero Exec is
		// not an engine loop.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		dirs := framework.Directives(pass.Fset, file)
		c := &checker{pass: pass, reach: reach, dirs: dirs}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// isGovernorMethod reports whether fn is a governance method on the
// governor type (matched by package and type name, so fixtures
// modeling the real package exercise the same logic).
func isGovernorMethod(fn *types.Func) bool {
	if !governorMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return framework.IsNamed(sig.Recv().Type(), "governor", "Governor")
}

// carriesGovernor reports whether t is *governor.Governor or the
// join.Exec a governor travels in.
func carriesGovernor(t types.Type) bool {
	return t != nil && (framework.IsNamed(t, "governor", "Governor") || framework.IsNamed(t, "join", "Exec"))
}

// holdsGovernor reports whether t carries a governor or is a struct (or a
// pointer to one) with a field that does — the tree join's executor state,
// whose methods reach the governor through the receiver.
func holdsGovernor(t types.Type) bool {
	if carriesGovernor(t) {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if carriesGovernor(s.Field(i).Type()) {
			return true
		}
	}
	return false
}

type checker struct {
	pass  *framework.Pass
	reach *framework.Reachability
	dirs  map[int]framework.Directive
}

// checkFunc flags ungoverned tuple loops in one declared function. The
// check only applies when a governor is in scope — as a parameter, the
// receiver or a field of the receiver, or any expression mentioned in the
// body (an evaluator's Gov field, a local) — because without one there is
// nothing the loop could tick.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if !c.governorInScope(fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			switch {
			case c.isTupleRange(x):
				c.checkLoop(x, x.Body, "range over tuples")
			case c.isRowLoop(x.X, x.Body, x.Key, x.Value):
				c.checkLoop(x, x.Body, "counted loop over relation rows")
			}
		case *ast.ForStmt:
			switch {
			case isChainLoop(x):
				c.checkLoop(x, x.Body, "index-chain loop")
			case c.isRowLoop(x.Cond, x.Body, initVars(x)...):
				c.checkLoop(x, x.Body, "counted loop over relation rows")
			}
		case *ast.CallExpr:
			if body := eachCallbackBody(c.pass, x); body != nil {
				c.checkLoop(x, body, "Relation.Each callback")
			}
		}
		return true
	})
}

// governorInScope reports whether fd has a *governor.Governor reachable
// by name: in its signature (the receiver's fields included, so that a
// method does not leave the analyzer's sight by losing its only Tick) or as
// any typed expression in its body.
func (c *checker) governorInScope(fd *ast.FuncDecl) bool {
	obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if ok {
		sig := obj.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && holdsGovernor(recv.Type()) {
			return true
		}
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if carriesGovernor(params.At(i).Type()) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if carriesGovernor(c.pass.Info.TypeOf(expr)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isTupleRange reports whether the range statement iterates a slice of
// relation.Tuple — the shape whose trip count is a relation cardinality.
// Ranging over one Tuple's attributes is width-bounded and exempt.
func (c *checker) isTupleRange(rng *ast.RangeStmt) bool {
	t := c.pass.Info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return framework.IsNamed(slice.Elem(), "relation", "Tuple")
}

// isRowLoop reports whether a loop with the given bound expression (a for
// statement's condition, a range statement's operand), body and own
// variables walks a relation's rows by position: the bound calls
// Relation.Len(), or the body reads Relation.Tuple(e) with e built from
// one of the loop's variables.
func (c *checker) isRowLoop(bound ast.Expr, body *ast.BlockStmt, vars ...ast.Expr) bool {
	own := make(map[types.Object]bool)
	for _, v := range vars {
		if id, ok := v.(*ast.Ident); ok {
			if obj := c.pass.Info.ObjectOf(id); obj != nil {
				own[obj] = true
			}
		}
	}
	found := false
	if bound != nil {
		ast.Inspect(bound, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && relationMethod(c.pass, call) == "Len" {
				found = true
			}
			return !found
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && relationMethod(c.pass, call) == "Tuple" && len(call.Args) == 1 {
			ast.Inspect(call.Args[0], func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && own[c.pass.Info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// relationMethod returns the name of the relation.Relation method call
// invokes, or "".
func relationMethod(pass *framework.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !framework.IsNamed(pass.Info.TypeOf(sel.X), "relation", "Relation") {
		return ""
	}
	return sel.Sel.Name
}

// initVars returns the variables a for statement's init clause assigns.
func initVars(loop *ast.ForStmt) []ast.Expr {
	if init, ok := loop.Init.(*ast.AssignStmt); ok {
		return init.Lhs
	}
	return nil
}

// isChainLoop reports whether loop's post statement advances a variable
// through a call that takes the variable itself (i = t.after(i); id, p =
// ix.Next(h, p)): a walk along a chain of indices, whose length no
// condition in sight bounds.
func isChainLoop(loop *ast.ForStmt) bool {
	post, ok := loop.Post.(*ast.AssignStmt)
	if !ok {
		return false
	}
	assigned := make(map[string]bool)
	for _, lhs := range post.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			assigned[id.Name] = true
		}
	}
	found := false
	for _, rhs := range post.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && assigned[id.Name] {
					found = true
				}
				return !found
			})
		}
	}
	return found
}

// eachCallbackBody returns the function-literal body of a
// Relation.Each(func(t Tuple) bool) call, or nil when call is not one.
func eachCallbackBody(pass *framework.Pass, call *ast.CallExpr) *ast.BlockStmt {
	if relationMethod(pass, call) != "Each" || len(call.Args) != 1 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		return nil
	}
	return lit.Body
}

// checkLoop reports loop (at node pos) unless its body reaches a
// governor method, hands the governor to a callee, or carries a
// reasoned //lint:ungoverned directive.
func (c *checker) checkLoop(at ast.Node, body *ast.BlockStmt, what string) {
	if d, ok := framework.DirectiveFor(c.pass.Fset, c.dirs, at, "ungoverned"); ok {
		if d.Reason == "" {
			c.pass.Reportf(at.Pos(), "//lint:ungoverned needs a reason: say why this %s is cardinality-bounded", what)
		}
		return
	}
	if c.reach.Reaches(body) || delegatesGovernor(c.pass, body) {
		return
	}
	c.pass.Reportf(at.Pos(), "%s has no reachable governor Tick/Check: tick per tuple, pass the governor down, or annotate //lint:ungoverned <reason>", what)
}

// delegatesGovernor reports whether any call under n passes the governor
// on as an argument — the engine's one idiom for "the callee governs on
// our behalf" (strategies take a join.Exec, helpers a governor).
func delegatesGovernor(pass *framework.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && !found {
			for _, arg := range call.Args {
				if carriesGovernor(pass.Info.TypeOf(arg)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
